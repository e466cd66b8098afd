#include "tuneSpace.h"

#include "sxml.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace tune
{

// --------------------------------------------------------------- equality

bool OverrideList::operator==(const OverrideList &o) const
{
  // compare padded with defaults: a short (or missing) vector is the same
  // point as one extended with default entries
  static const AnalysisOverride def;
  for (std::size_t i = 0; i < std::max(this->size(), o.size()); ++i)
    if (!((i < this->size() ? (*this)[i] : def) ==
          (i < o.size() ? o[i] : def)))
      return false;
  return true;
}

// ------------------------------------------------------------------ knobs

std::size_t Knob::Cardinality() const
{
  switch (this->Kind)
  {
    case KnobKind::Bool:
      return 2;
    case KnobKind::Enum:
      return this->Choices.size();
    case KnobKind::PowerOfTwo:
      return static_cast<std::size_t>(
               std::lround(std::log2(this->Max / this->Min))) + 1;
    case KnobKind::Int:
      return static_cast<std::size_t>(this->Max - this->Min) + 1;
    case KnobKind::LogDouble:
      return static_cast<std::size_t>(std::lround(
               std::log(this->Max / this->Min) / std::log(this->Step))) + 1;
  }
  return 1;
}

namespace
{

// the i-th value of a knob's domain, i in [0, Cardinality())
double ValueAt(const Knob &k, std::size_t i)
{
  switch (k.Kind)
  {
    case KnobKind::Bool:
    case KnobKind::Enum:
      return static_cast<double>(i);
    case KnobKind::PowerOfTwo:
      return k.Min * std::pow(2.0, static_cast<double>(i));
    case KnobKind::Int:
      return k.Min + static_cast<double>(i);
    case KnobKind::LogDouble:
      return std::min(k.Max,
                      k.Min * std::pow(k.Step, static_cast<double>(i)));
  }
  return k.Min;
}

// index of the domain value closest to v
std::size_t IndexOf(const Knob &k, double v)
{
  switch (k.Kind)
  {
    case KnobKind::Bool:
    case KnobKind::Enum:
    case KnobKind::Int:
      break;
    case KnobKind::PowerOfTwo:
      return static_cast<std::size_t>(std::max(
        0L, std::lround(std::log2(std::max(v, k.Min) / k.Min))));
    case KnobKind::LogDouble:
      return static_cast<std::size_t>(std::max(
        0L, std::lround(std::log(std::max(v, k.Min) / k.Min) /
                        std::log(k.Step))));
  }
  return static_cast<std::size_t>(std::max(0.0, v - k.Min));
}

std::string FormatValue(const Knob &k, double v)
{
  if ((k.Kind == KnobKind::Bool || k.Kind == KnobKind::Enum) &&
      static_cast<std::size_t>(v) < k.Choices.size())
    return k.Choices[static_cast<std::size_t>(v)];
  std::ostringstream os;
  os << v;
  return os.str();
}

AnalysisOverride &OverrideAt(ConfigPoint &p, std::size_t i)
{
  if (p.Overrides.size() <= i)
    p.Overrides.resize(i + 1);
  return p.Overrides[i];
}

// the elements the tuner models: those with a tunable row
bool Modeled(std::string_view element)
{
  for (const vp::knobs::Row &r : vp::knobs::Rows())
    if (r.Element == element && r.Tune.Tunable)
      return true;
  return false;
}

Knob FromRow(const vp::knobs::Row &r)
{
  Knob k;
  k.Name = std::string(r.Element) + "." + std::string(r.Attr);
  k.Kind = r.Tune.Kind;
  k.Min = r.Tune.Min;
  k.Max = r.Tune.Max;
  k.Step = r.Tune.Step;
  if (k.Kind == KnobKind::Bool)
    k.Choices = {"0", "1"};
  else if (k.Kind == KnobKind::Enum)
    for (int i = int(k.Min); i <= int(k.Max) && i < r.Enum->Count; ++i)
      k.Choices.push_back(r.Enum->Name(i));
  return k;
}

} // namespace

KnobSpace KnobSpace::Campaign(int nAnalyses, bool includeExec)
{
  KnobSpace s;
  for (const vp::knobs::Row &r : vp::knobs::Rows())
  {
    if (!r.Tune.Tunable || (!includeExec && r.Element == "exec"))
      continue;
    if (r.Element == "analysis")
    {
      // one knob per analysis, with "follow the run-wide default" (-1) as
      // choice 0 in front of the row's names
      for (int i = 0; i < nAnalyses; ++i)
      {
        Knob k = FromRow(r);
        k.Name = "analysis" + std::to_string(i) + "." + std::string(r.Attr);
        k.Choices.insert(k.Choices.begin(), "default");
        const std::size_t idx = static_cast<std::size_t>(i);
        k.Get = [&r, idx](const ConfigPoint &p)
        {
          return idx < p.Overrides.size() ? r.Get(&p.Overrides[idx]) + 1.0
                                          : 0.0;
        };
        k.Set = [&r, idx](ConfigPoint &p, double v)
        { r.Set(&OverrideAt(p, idx), v - 1.0); };
        s.Knobs_.push_back(std::move(k));
      }
      continue;
    }
    Knob k = FromRow(r);
    k.Get = [&r](const ConfigPoint &p)
    { return r.Get(vp::knobs::Section(p, r.Element)); };
    k.Set = [&r](ConfigPoint &p, double v)
    { r.Set(vp::knobs::Section(p, r.Element), v); };
    if (r.Element == "viz" && r.Attr == "width")
    {
      // tune-only view: one square resolution over width and height
      k.Name = "viz.resolution";
      k.Set = [](ConfigPoint &p, double v)
      { p.Viz.Width = p.Viz.Height = static_cast<std::uint32_t>(v); };
    }
    s.Knobs_.push_back(std::move(k));
  }
  return s;
}

double KnobSpace::Size() const
{
  double n = 1.0;
  for (const Knob &k : this->Knobs_)
    n *= double(k.Cardinality());
  return n;
}

ConfigPoint KnobSpace::Random(std::mt19937_64 &rng) const
{
  ConfigPoint p;
  for (const Knob &k : this->Knobs_)
  {
    std::uniform_int_distribution<std::size_t> pick(0, k.Cardinality() - 1);
    k.Set(p, ValueAt(k, pick(rng)));
  }
  return p;
}

std::string KnobSpace::Neighbor(ConfigPoint &p, std::mt19937_64 &rng) const
{
  if (this->Knobs_.empty())
    return std::string();

  std::uniform_int_distribution<std::size_t> pickKnob(
    0, this->Knobs_.size() - 1);
  for (int attempt = 0; attempt < 64; ++attempt)
  {
    const Knob &k = this->Knobs_[pickKnob(rng)];
    const std::size_t n = k.Cardinality();
    if (n < 2)
      continue;

    const std::size_t cur = IndexOf(k, k.Get(p));
    std::size_t next = cur;
    if (k.Kind == KnobKind::Enum || k.Kind == KnobKind::Bool)
    {
      // adjacent choice, wrapping
      const bool up = std::uniform_int_distribution<int>(0, 1)(rng) != 0;
      next = up ? (cur + 1) % n : (cur + n - 1) % n;
    }
    else
    {
      // one step along the scale, reflecting at the bounds
      bool up = std::uniform_int_distribution<int>(0, 1)(rng) != 0;
      if (cur == 0)
        up = true;
      else if (cur >= n - 1)
        up = false;
      next = up ? cur + 1 : cur - 1;
    }
    if (next == cur)
      continue;

    const double oldV = k.Get(p);
    k.Set(p, ValueAt(k, next));
    return k.Name + ": " + FormatValue(k, oldV) + " -> " +
           FormatValue(k, k.Get(p));
  }
  return std::string();
}

void KnobSpace::Clamp(ConfigPoint &p) const
{
  for (const Knob &k : this->Knobs_)
  {
    const std::size_t n = k.Cardinality();
    std::size_t i = IndexOf(k, k.Get(p));
    if (i >= n)
      i = n - 1;
    k.Set(p, ValueAt(k, i));
  }
}

// ------------------------------------------------------------ XML emitter

void ApplyToDoc(const ConfigPoint &p, sxml::Element &root)
{
  // every modeled element is (re)written with every row explicit, so
  // loading the document fully determines the subsystem configurations
  // regardless of what a previous candidate (or a hand-written config)
  // left behind
  for (const std::string &e : vp::knobs::Elements())
    if (Modeled(e))
      vp::knobs::EmitElement(p, e, *root.FindOrAddChild(e));

  // per-analysis overrides onto the i-th <analysis> element
  std::size_t i = 0;
  for (const auto &child : root.Children())
  {
    if (child->Name() != "analysis")
      continue;
    if (i >= p.Overrides.size())
      break;
    vp::knobs::EmitAnalysis(p.Overrides[i++], *child);
  }
}

std::string EmitXml(const ConfigPoint &p)
{
  sxml::Element root;
  root.SetName("sensei");
  ApplyToDoc(p, root);

  // a standalone document has no <analysis> children to carry override
  // attributes: record them in a <tune> element ConfigurableAnalysis
  // ignores, so the document stays loadable and the point round-trips
  sxml::Element *te = nullptr;
  for (std::size_t i = 0; i < p.Overrides.size(); ++i)
  {
    if (p.Overrides[i].IsDefault())
      continue;
    if (!te)
      te = root.FindOrAddChild("tune");
    sxml::Element *oe = te->AddChild("override");
    oe->SetAttributeInt("analysis", static_cast<long long>(i));
    vp::knobs::EmitAnalysis(p.Overrides[i], *oe);
  }

  return sxml::Serialize(root);
}

// ------------------------------------------------------------- XML parser

ConfigPoint ParseDoc(const sxml::Element &root)
{
  if (root.Name() != "sensei")
    throw std::runtime_error("tune::ParseDoc: document element must be "
                             "<sensei>, got <" + root.Name() + ">");

  ConfigPoint p;
  for (const std::string &e : vp::knobs::Elements())
    if (const sxml::Element *el = root.FirstChild(e); el && Modeled(e))
      vp::knobs::ApplyElement(*el, p);

  // per-analysis overrides: from <analysis> elements when the document
  // has them (a campaign config), from <tune><override> records when it
  // does not (a standalone EmitXml document)
  std::size_t i = 0;
  for (const sxml::Element *ae : root.ChildrenNamed("analysis"))
  {
    AnalysisOverride ov;
    vp::knobs::ApplyAnalysis(*ae, ov);
    if (!ov.IsDefault())
      OverrideAt(p, i) = ov;
    ++i;
  }
  if (const sxml::Element *te = root.FirstChild("tune"))
    for (const sxml::Element *oe : te->ChildrenNamed("override"))
    {
      const long long idx = oe->AttributeInt("analysis", -1);
      if (idx < 0)
        throw std::runtime_error(
          "tune::ParseDoc: <override> needs an analysis=\"i\" index");
      AnalysisOverride ov;
      vp::knobs::ApplyAnalysis(*oe, ov);
      OverrideAt(p, static_cast<std::size_t>(idx)) = ov;
    }
  return p;
}

ConfigPoint ParseXml(const std::string &xml)
{
  return ParseDoc(*sxml::Parse(xml));
}

ConfigPoint ParseFile(const std::string &path)
{
  return ParseDoc(*sxml::ParseFile(path));
}

std::string Describe(const ConfigPoint &p)
{
  // the modeled rows that differ from the tune origin, per element
  static const ConfigPoint origin;
  std::ostringstream os;
  for (const std::string &e : vp::knobs::Elements())
  {
    if (!Modeled(e))
      continue;
    std::string diff;
    for (const vp::knobs::Row &r : vp::knobs::Rows())
    {
      if (r.Element != e)
        continue;
      const double v = r.Get(vp::knobs::Section(p, e));
      if (v != r.Get(vp::knobs::Section(origin, e)))
        diff += (diff.empty() ? "" : ",") + std::string(r.Attr) + ":" +
                vp::knobs::Format(r, v);
    }
    if (!diff.empty())
      os << ' ' << e << '=' << diff;
  }
  int n = 0;
  for (const AnalysisOverride &ov : p.Overrides)
    if (!ov.IsDefault())
      ++n;
  if (n)
    os << " overrides=" << n;
  const std::string out = os.str();
  return out.empty() ? "origin" : out.substr(1);
}

} // namespace tune
