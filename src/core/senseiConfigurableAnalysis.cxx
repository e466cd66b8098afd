#include "senseiConfigurableAnalysis.h"

#include "senseiAutocorrelation.h"
#include "senseiColumnStatistics.h"
#include "senseiDataBinning.h"
#include "senseiHistogram.h"
#include "senseiPosthocIO.h"
#include "sxml.h"
#include "vizRender.h"
#include "vpKnobs.h"

#include <sstream>
#include <stdexcept>

namespace sensei
{

namespace
{
/// Split a comma separated attribute list, trimming whitespace.
std::vector<std::string> SplitList(const std::string &s)
{
  std::vector<std::string> out;
  std::istringstream iss(s);
  std::string tok;
  while (std::getline(iss, tok, ','))
  {
    std::size_t b = tok.find_first_not_of(" \t");
    std::size_t e = tok.find_last_not_of(" \t");
    out.push_back(b == std::string::npos ? std::string()
                                         : tok.substr(b, e - b + 1));
  }
  return out;
}

/// The live configuration of every subsystem element. A <fault> element
/// is a complete plan, so Fault starts from no faults.
vp::knobs::Settings LiveSettings()
{
  vp::knobs::Settings s;
  s.Pool = vp::PoolManager::Get().Config();
  s.Check = vp::check::GetConfig();
  s.Sched = sched::GetConfig();
  s.Compress = cmp::GetConfig();
  s.Exec = vp::exec::GetConfig();
  s.Graph = vp::graph::GetConfig();
  s.Layout = vp::layout::GetConfig();
  s.Service = svc::GetConfig();
  s.Viz = viz::GetConfig();
  return s;
}

/// Install one element's configuration from `s`.
void ConfigureElement(const std::string &e, const vp::knobs::Settings &s)
{
  if (e == "pool") vp::PoolManager::Get().Configure(s.Pool);
  else if (e == "check") vp::check::Configure(s.Check);
  else if (e == "sched") sched::Configure(s.Sched);
  else if (e == "compress") cmp::Configure(s.Compress);
  else if (e == "exec") vp::exec::Configure(s.Exec);
  else if (e == "graph") vp::graph::Configure(s.Graph);
  else if (e == "layout") vp::layout::Configure(s.Layout);
  else if (e == "service") svc::Configure(s.Service);
  else if (e == "viz") viz::Configure(s.Viz);
  else if (e == "fault") vp::fault::Configure(s.Fault);
}
} // namespace

ConfigurableAnalysis::~ConfigurableAnalysis()
{
  for (AnalysisAdaptor *a : this->Analyses_)
    a->UnRegister();
}

void ConfigurableAnalysis::InitializeFile(const std::string &path)
{
  auto root = sxml::ParseFile(path);
  this->Initialize(*root);
}

void ConfigurableAnalysis::InitializeString(const std::string &xml)
{
  auto root = sxml::Parse(xml);
  this->Initialize(*root);
}

void ConfigurableAnalysis::Initialize(const sxml::Element &root)
{
  if (root.Name() != "sensei")
    throw std::runtime_error(
      "ConfigurableAnalysis: document element must be <sensei>");

  // the subsystem elements (<pool>, <sched>, <exec>, ... — the knob
  // table in vpKnobs.h): each one present starts from the live
  // configuration, takes its attributes and then its environment
  // overrides, and is configured once the whole document parsed, so a
  // bad knob leaves every subsystem untouched
  vp::knobs::Settings s = LiveSettings();
  std::vector<std::string> present;
  for (const std::string &name : vp::knobs::Elements())
    if (const sxml::Element *e = root.FirstChild(name))
    {
      vp::knobs::ApplyElement(*e, s);
      vp::knobs::ApplyEnv(name, s);
      present.push_back(name);
    }
  if (const sxml::Element *ze = root.FirstChild("viz"))
  {
    vp::knobs::ApplyVizHooks(*ze, s);
    if (ze->HasAttribute("push_depth"))
      present.push_back("service");
  }
  try
  {
    for (const std::string &name : present)
      ConfigureElement(name, s);
  }
  catch (const std::invalid_argument &e)
  {
    throw std::runtime_error(std::string("ConfigurableAnalysis: ") +
                             e.what());
  }
  if (root.FirstChild("sched"))
  {
    this->SchedPolicy_ = s.Sched.Policy;
    this->HaveSchedPolicy_ = true;
  }

  for (const sxml::Element *el : root.ChildrenNamed("analysis"))
  {
    if (!el->AttributeBool("enabled", true))
      continue;
    AnalysisAdaptor *a = this->BuildAnalysis(*el);
    try
    {
      ApplyCommon(*el, a);
      this->Analyses_.push_back(a);
    }
    catch (...)
    {
      a->UnRegister();
      throw;
    }
  }
}

void ConfigurableAnalysis::ApplyCommon(const sxml::Element &el,
                                       AnalysisAdaptor *a)
{
  // execution method
  a->SetAsynchronous(el.AttributeBool("async", false));

  // placement: explicit device id, "host", or "auto" + Eq. 1 controls
  const std::string device = el.Attribute("device", "auto");
  if (device == "host")
    a->SetDeviceId(AnalysisAdaptor::DEVICE_HOST);
  else if (device == "auto")
    a->SetDeviceId(AnalysisAdaptor::DEVICE_AUTO);
  else
    a->SetDeviceId(static_cast<int>(el.AttributeInt("device", 0)));

  a->SetDevicesToUse(static_cast<int>(el.AttributeInt("devices_to_use", 0)));
  a->SetDeviceStart(static_cast<int>(el.AttributeInt("device_start", 0)));
  a->SetDeviceStride(static_cast<int>(el.AttributeInt("device_stride", 1)));
  a->SetVerbose(static_cast<int>(el.AttributeInt("verbose", 0)));

  // per-analysis overrides of the run-wide placement policy, codec and
  // array layout; compress_level / compress_error_bound default to the
  // <compress> element's
  const cmp::Params dflt = cmp::GetConfig().Default;
  vp::knobs::AnalysisOverride ov;
  ov.Level = dflt.Level;
  ov.ErrorBound = dflt.ErrorBound;
  vp::knobs::ApplyAnalysis(el, ov);

  if (ov.Policy >= 0)
    a->SetPlacementPolicy(static_cast<sched::PolicyKind>(ov.Policy));
  else if (this->HaveSchedPolicy_)
    a->SetPlacementPolicy(this->SchedPolicy_);

  if (ov.Codec >= 0)
  {
    const auto codec = static_cast<cmp::CodecId>(ov.Codec);
    if (codec == cmp::CodecId::Quantize && !(ov.ErrorBound > 0.0))
      throw std::runtime_error(
        "ConfigurableAnalysis: compress=\"quantize\" needs a positive "
        "compress_error_bound");
    a->SetCompression(cmp::Params{codec, ov.Level, ov.ErrorBound});
  }

  if (ov.Layout >= 0)
  {
    if (ov.LayoutBlock == 1)
      throw std::runtime_error("ConfigurableAnalysis: layout_block must be "
                               "in [2, 65536] (or 0 for the default)");
    a->SetArrayLayout(static_cast<vp::layout::Kind>(ov.Layout),
                      ov.LayoutBlock);
  }
}

AnalysisAdaptor *ConfigurableAnalysis::BuildAnalysis(const sxml::Element &el)
{
  const std::string type = el.Attribute("type");

  if (type == "data_binning")
  {
    DataBinning *b = DataBinning::New();
    try
    {
      b->SetMeshName(el.Attribute("mesh", "table"));

      const std::vector<std::string> axes =
        SplitList(el.Attribute("axes", "x,y"));
      b->SetAxes(axes);

      if (el.HasAttribute("resolution"))
      {
        std::vector<long> res;
        for (const std::string &r : SplitList(el.Attribute("resolution")))
          res.push_back(std::stol(r));
        b->SetResolution(res);
      }

      // optional fixed ranges: range_0="lo,hi" per axis
      for (std::size_t a = 0; a < axes.size(); ++a)
      {
        const std::string key = "range_" + std::to_string(a);
        if (el.HasAttribute(key))
        {
          std::vector<std::string> r = SplitList(el.Attribute(key));
          if (r.size() != 2)
            throw std::runtime_error("data_binning: " + key +
                                     " must be 'lo,hi'");
          b->SetRange(static_cast<int>(a), std::stod(r[0]), std::stod(r[1]));
        }
      }

      const std::vector<std::string> ops =
        SplitList(el.Attribute("ops", "count"));
      const std::vector<std::string> values =
        SplitList(el.Attribute("values", ""));
      for (std::size_t i = 0; i < ops.size(); ++i)
      {
        const BinningOp op = BinningOpFromName(ops[i]);
        const std::string col = i < values.size() ? values[i] : std::string();
        if (op != BinningOp::Count)
          b->AddOperation(col, op);
      }

      if (el.HasAttribute("out_dir"))
        b->SetOutput(el.Attribute("out_dir"),
                     el.Attribute("out_prefix", "binning"),
                     el.AttributeInt("out_freq", 1));

      b->SetGpuStrategy(
        GpuBinningStrategyFromName(el.Attribute("gpu_strategy", "")));
    }
    catch (...)
    {
      b->UnRegister();
      throw;
    }
    return b;
  }

  if (type == "render")
  {
    // the steerable rendering endpoint: a data binning driven through a
    // transfer function; defaults come from the <viz> element
    const viz::VizConfig vcfg = viz::GetConfig();
    viz::RenderAnalysis *r = viz::RenderAnalysis::New();
    try
    {
      r->SetMeshName(el.Attribute("mesh", "table"));
      r->SetAxes(SplitList(el.Attribute("axes", "x,y")));
      if (el.HasAttribute("resolution"))
        r->SetBinResolution(el.AttributeInt("resolution", 256));

      const std::vector<std::string> axes = SplitList(el.Attribute(
        "axes", "x,y"));
      for (std::size_t a = 0; a < axes.size(); ++a)
      {
        const std::string key = "range_" + std::to_string(a);
        if (el.HasAttribute(key))
        {
          std::vector<std::string> rg = SplitList(el.Attribute(key));
          if (rg.size() != 2)
            throw std::runtime_error("render: " + key + " must be 'lo,hi'");
          r->SetBinRange(static_cast<int>(a), std::stod(rg[0]),
                         std::stod(rg[1]));
        }
      }

      if (el.HasAttribute("variable"))
        r->SetVariable(el.Attribute("variable"), el.Attribute("op", "sum"));

      r->SetImageSize(
        static_cast<std::uint32_t>(el.AttributeInt("width", vcfg.Width)),
        static_cast<std::uint32_t>(el.AttributeInt("height", vcfg.Height)));

      viz::TransferFunction tf;
      tf.Map = viz::ColormapFromName(
        el.Attribute("colormap", viz::ColormapName(vcfg.Map)));
      tf.Log = el.AttributeBool("log", vcfg.Log);
      tf.AutoRange = vcfg.AutoRange;
      tf.Lo = vcfg.Lo;
      tf.Hi = vcfg.Hi;
      if (el.HasAttribute("range"))
      {
        std::vector<std::string> rg = SplitList(el.Attribute("range"));
        if (rg.size() != 2)
          throw std::runtime_error("render: range must be 'lo,hi'");
        tf.Lo = std::stod(rg[0]);
        tf.Hi = std::stod(rg[1]);
        tf.AutoRange = false;
      }
      r->SetTransfer(tf);
    }
    catch (const std::invalid_argument &e)
    {
      r->UnRegister();
      throw std::runtime_error(std::string("ConfigurableAnalysis: render: ") +
                               e.what());
    }
    catch (...)
    {
      r->UnRegister();
      throw;
    }
    return r;
  }

  if (type == "histogram")
  {
    Histogram *h = Histogram::New();
    try
    {
      h->SetMeshName(el.Attribute("mesh", "table"));
      h->SetColumn(el.Attribute("column"));
      h->SetBins(el.AttributeInt("bins", 64));
      if (el.HasAttribute("range"))
      {
        std::vector<std::string> r = SplitList(el.Attribute("range"));
        if (r.size() != 2)
          throw std::runtime_error("histogram: range must be 'lo,hi'");
        h->SetRange(std::stod(r[0]), std::stod(r[1]));
      }
    }
    catch (...)
    {
      h->UnRegister();
      throw;
    }
    return h;
  }

  if (type == "autocorrelation")
  {
    Autocorrelation *a = Autocorrelation::New();
    a->SetMeshName(el.Attribute("mesh", "table"));
    a->SetColumn(el.Attribute("column"));
    a->SetWindow(el.AttributeInt("window", 8));
    return a;
  }

  if (type == "column_statistics")
  {
    ColumnStatistics *s = ColumnStatistics::New();
    s->SetMeshName(el.Attribute("mesh", "table"));
    if (el.HasAttribute("columns"))
      s->SetColumns(SplitList(el.Attribute("columns")));
    if (el.HasAttribute("file"))
      s->SetOutputFile(el.Attribute("file"));
    return s;
  }

  if (type == "posthoc_io")
  {
    PosthocIO *io = PosthocIO::New();
    io->SetMeshName(el.Attribute("mesh", "table"));
    io->SetOutputDir(el.Attribute("dir", "."));
    io->SetPrefix(el.Attribute("prefix", "posthoc"));
    io->SetFrequency(el.AttributeInt("frequency", 1));
    const std::string fmt = el.Attribute("format", "csv");
    io->SetFormat(fmt == "vtk"    ? PosthocIO::Format::VTK
                  : fmt == "sbin" ? PosthocIO::Format::SBIN
                                  : PosthocIO::Format::CSV);
    return io;
  }

  throw std::runtime_error("ConfigurableAnalysis: unknown analysis type '" +
                           type + "'");
}

bool ConfigurableAnalysis::Execute(DataAdaptor *data)
{
  bool ok = true;
  for (AnalysisAdaptor *a : this->Analyses_)
    ok = a->Execute(data) && ok;
  return ok;
}

void ConfigurableAnalysis::DrainAsync()
{
  for (AnalysisAdaptor *a : this->Analyses_)
    a->DrainAsync();
}

int ConfigurableAnalysis::Finalize()
{
  // drain every analysis before finalizing any: a back end's Finalize
  // (or the profiler shutdown that follows) must not run while a sibling
  // still has an asynchronous task in flight
  this->DrainAsync();

  int status = 0;
  for (AnalysisAdaptor *a : this->Analyses_)
  {
    const int s = a->Finalize();
    if (s && !status)
      status = s;
  }
  return status;
}

AnalysisAdaptor *ConfigurableAnalysis::GetAnalysis(int i) const
{
  if (i < 0 || i >= static_cast<int>(this->Analyses_.size()))
    return nullptr;
  return this->Analyses_[static_cast<std::size_t>(i)];
}

} // namespace sensei
