#include "vpKnobs.h"

#include "sxml.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace vp
{
namespace knobs
{

namespace
{

// open upper bounds: integers stay where double is exact
constexpr double kBig = 9007199254740992.0; // 2^53
constexpr double kInt = 2147483647.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

template <class T> double ToDouble(T v)
{
  if constexpr (std::is_enum_v<T>)
    return static_cast<double>(static_cast<int>(v));
  else
    return static_cast<double>(v);
}

template <class T> void Assign(T &f, double v)
{
  if constexpr (std::is_same_v<T, bool>)
    f = v != 0.0;
  else if constexpr (std::is_enum_v<T>)
    f = static_cast<T>(static_cast<int>(v));
  else
    f = static_cast<T>(v);
}

// a row's Get/Set pair for field `f` of struct `S`
#define FIELD(S, f)                                                          \
  [](const void *c) { return ToDouble(static_cast<const S *>(c)->f); },     \
    [](void *c, double v) { Assign(static_cast<S *>(c)->f, v); }

template <class E, E (*FromName)(const std::string &),
          const char *(*ToName)(E)>
constexpr Names Vocabulary(int count)
{
  return {[](const std::string &s) { return static_cast<int>(FromName(s)); },
          [](int i) { return ToName(static_cast<E>(i)); }, count};
}

vp::layout::Kind LayoutFromName(const std::string &s)
{
  return vp::layout::KindFromName(s);
}
const char *LayoutName(vp::layout::Kind k) { return vp::layout::KindName(k); }

constexpr Names kPolicies =
  Vocabulary<sched::PolicyKind, sched::PolicyKindFromName,
             sched::PolicyKindName>(3);
constexpr Names kPressures =
  Vocabulary<sched::Backpressure, sched::BackpressureFromName,
             sched::BackpressureName>(3);
constexpr Names kCodecs =
  Vocabulary<cmp::CodecId, cmp::CodecIdFromName, cmp::CodecName>(4);
constexpr Names kModes =
  Vocabulary<vp::exec::Mode, vp::exec::ModeFromName, vp::exec::ModeName>(2);
constexpr Names kLayouts =
  Vocabulary<vp::layout::Kind, LayoutFromName, LayoutName>(3);
constexpr Names kColormaps =
  Vocabulary<viz::Colormap, viz::ColormapFromName, viz::ColormapName>(3);

using Getter = double (*)(const void *);
using Setter = void (*)(void *, double);

Row B(std::string_view el, std::string_view attr, std::string_view env,
      Getter g, Setter s, Domain t = {})
{
  return {el, attr, env, Type::Bool, 0.0, 1.0, nullptr, g, s, t};
}

Row I(std::string_view el, std::string_view attr, std::string_view env,
      double lo, double hi, Getter g, Setter s, Domain t = {})
{
  return {el, attr, env, Type::Int, lo, hi, nullptr, g, s, t};
}

Row D(std::string_view el, std::string_view attr, std::string_view env,
      double lo, double hi, Getter g, Setter s, Domain t = {})
{
  return {el, attr, env, Type::Double, lo, hi, nullptr, g, s, t};
}

Row E(std::string_view el, std::string_view attr, std::string_view env,
      const Names &n, Getter g, Setter s, Domain t = {})
{
  return {el, attr, env, Type::Enum, 0.0, n.Count - 1.0, &n, g, s, t};
}

Domain Flip(double lo = 0.0, double hi = 0.0)
{
  return {true, Scale::Bool, lo, hi};
}
Domain Pick(double lo, double hi) { return {true, Scale::Enum, lo, hi}; }
Domain Pow2(double lo, double hi) { return {true, Scale::PowerOfTwo, lo, hi}; }
Domain Step1(double lo, double hi) { return {true, Scale::Int, lo, hi}; }
Domain LogStep(double lo, double hi, double step)
{
  return {true, Scale::LogDouble, lo, hi, step};
}

using vp::PoolConfig;
using vp::check::CheckConfig;
using sched::SchedConfig;
using CmpConfig = cmp::Config;
using vp::exec::ExecConfig;
using vp::graph::GraphConfig;
using vp::layout::LayoutConfig;
using svc::ServiceConfig;
using viz::VizConfig;
using vp::fault::FaultConfig;

std::vector<Row> MakeRows()
{
  return {
    // <pool> — the stream-ordered caching allocator
    B("pool", "enabled", "", FIELD(PoolConfig, Enabled), Flip(0, 1)),
    I("pool", "max_cached_bytes", "", 0, kBig,
      FIELD(PoolConfig, MaxCachedBytes), Pow2(1 << 20, 1 << 30)),
    D("pool", "trim_threshold", "", 0, 1,
      FIELD(PoolConfig, TrimThreshold), LogStep(0.125, 1.0, 2.0)),
    I("pool", "min_block_bytes", "", 1, kBig,
      FIELD(PoolConfig, MinBlockBytes), Pow2(64, 65536)),

    // <check> — the race/lifetime checker
    B("check", "enabled", "VP_CHECK", FIELD(CheckConfig, Enabled)),
    I("check", "max_reports", "", 0, kBig, FIELD(CheckConfig, MaxReports)),
    B("check", "fail_fast", "", FIELD(CheckConfig, FailFast)),

    // <sched> — placement policy and the bounded async pipeline
    E("sched", "policy", "", kPolicies, FIELD(SchedConfig, Policy), Pick(0, 2)),
    I("sched", "queue_depth", "", 0, kBig,
      FIELD(SchedConfig, QueueDepth), Step1(0, 8)),
    E("sched", "backpressure", "", kPressures,
      FIELD(SchedConfig, Pressure), Pick(0, 2)),
    B("sched", "real_threads", "", FIELD(SchedConfig, RealThreads)),

    // <compress> — the default codec of the bulk payload paths
    B("compress", "enabled", "", FIELD(CmpConfig, Enabled), Flip()),
    E("compress", "codec", "", kCodecs,
      FIELD(CmpConfig, Default.Codec), Pick(0, 3)),
    I("compress", "level", "", 0, kInt,
      FIELD(CmpConfig, Default.Level), Step1(0, 3)),
    D("compress", "error_bound", "", 0, kInf,
      FIELD(CmpConfig, Default.ErrorBound), LogStep(1e-6, 1e-2, 10)),

    // <exec> — where kernel bodies really run
    E("exec", "mode", "VP_EXEC", kModes, FIELD(ExecConfig, ExecMode),
      Pick(0, 1)),
    I("exec", "threads", "VP_EXEC_THREADS", 0, kInt,
      FIELD(ExecConfig, Threads), Step1(0, 8)),
    I("exec", "shard_grain", "", 1, kBig,
      FIELD(ExecConfig, ShardGrain), Pow2(4096, 65536)),

    // <graph> — captured step-graph replay
    B("graph", "enabled", "VP_GRAPH", FIELD(GraphConfig, Enabled), Flip()),
    B("graph", "fusion", "VP_GRAPH_FUSION", FIELD(GraphConfig, Fusion), Flip()),
    I("graph", "max_nodes", "VP_GRAPH_MAX_NODES", 1, kBig,
      FIELD(GraphConfig, MaxNodes), Pow2(1024, 8192)),
    D("graph", "repin_threshold", "", 0, kInf,
      FIELD(GraphConfig, RepinThreshold)),

    // <layout> — the default array layout
    E("layout", "default", "VP_LAYOUT", kLayouts,
      FIELD(LayoutConfig, Default), Pick(0, 2)),
    I("layout", "block", "", 2, 65536, FIELD(LayoutConfig, Block),
      Pow2(8, 128)),

    // <service> — the multi-tenant in-transit service
    I("service", "max_sessions", "VP_SVC_MAX_SESSIONS", 1, kInt,
      FIELD(ServiceConfig, MaxSessions)),
    I("service", "workers", "VP_SVC_WORKERS", 1, kInt,
      FIELD(ServiceConfig, Workers)),
    I("service", "queue_depth", "VP_SVC_QUEUE_DEPTH", 0, kBig,
      FIELD(ServiceConfig, QueueDepth)),
    E("service", "backpressure", "VP_SVC_BACKPRESSURE", kPressures,
      FIELD(ServiceConfig, Pressure)),
    E("service", "policy", "VP_SVC_POLICY", kPolicies,
      FIELD(ServiceConfig, Policy)),
    I("service", "heartbeat_ms", "VP_SVC_HEARTBEAT_MS", 1, kInt,
      FIELD(ServiceConfig, HeartbeatMs)),
    I("service", "missed_heartbeats", "", 1, kInt,
      FIELD(ServiceConfig, MissedHeartbeats)),
    I("service", "ring_bytes", "", 1, kBig, FIELD(ServiceConfig, RingBytes)),
    I("service", "max_chunk_bytes", "", 1, kBig,
      FIELD(ServiceConfig, MaxChunkBytes)),
    E("service", "codec", "VP_SVC_CODEC", kCodecs,
      FIELD(ServiceConfig, CodecOverride.Codec)),
    I("service", "codec_level", "", 0, kInt,
      FIELD(ServiceConfig, CodecOverride.Level)),
    D("service", "codec_error_bound", "", 0, kInf,
      FIELD(ServiceConfig, CodecOverride.ErrorBound)),

    // <viz> — the steerable render endpoint (the tuner sees a square
    // viz.resolution over width and height)
    I("viz", "width", "VP_VIZ_WIDTH", 1, 65536, FIELD(VizConfig, Width),
      Pow2(64, 1024)),
    I("viz", "height", "VP_VIZ_HEIGHT", 1, 65536, FIELD(VizConfig, Height)),
    E("viz", "colormap", "VP_VIZ_COLORMAP", kColormaps,
      FIELD(VizConfig, Map), Pick(0, 2)),
    B("viz", "log", "VP_VIZ_LOG", FIELD(VizConfig, Log)),
    // image frames are RGBA bytes: the tuner only tries none/shuffle-rle
    E("viz", "codec", "VP_VIZ_CODEC", kCodecs,
      FIELD(VizConfig, Codec.Codec), Pick(0, 1)),
    I("viz", "codec_level", "", 0, kInt, FIELD(VizConfig, Codec.Level)),

    // <fault> — the deterministic fault injector
    B("fault", "enabled", "", FIELD(FaultConfig, Enabled)),
    I("fault", "seed", "", 0, kBig, FIELD(FaultConfig, Seed)),
    I("fault", "fail_alloc_nth", "", 0, kBig, FIELD(FaultConfig, FailAllocNth)),
    D("fault", "fail_alloc_prob", "", 0, 1, FIELD(FaultConfig, FailAllocProb)),
    I("fault", "drop_event_nth", "", 0, kBig, FIELD(FaultConfig, DropEventNth)),
    D("fault", "stream_delay", "", 0, kInf,
      FIELD(FaultConfig, StreamDelaySeconds)),
    I("fault", "delay_node", "", -1, kInt, FIELD(FaultConfig, DelayNode)),
    I("fault", "delay_device", "", -1, kInt, FIELD(FaultConfig, DelayDevice)),
    B("fault", "premature_reuse", "", FIELD(FaultConfig, PrematureReuse)),
    I("fault", "drop_frame_nth", "", 0, kBig, FIELD(FaultConfig, DropFrameNth)),
    I("fault", "crash_send_nth", "", 0, kBig, FIELD(FaultConfig, CrashSendNth)),
    D("fault", "frame_delay", "", 0, kInf,
      FIELD(FaultConfig, FrameDelaySeconds)),

    // <analysis> — per-analysis overrides of the run-wide defaults; the
    // tuner adds a default choice in front of the policies
    E("analysis", "policy", "", kPolicies,
      FIELD(AnalysisOverride, Policy), Pick(0, 3)),
    E("analysis", "compress", "", kCodecs, FIELD(AnalysisOverride, Codec)),
    I("analysis", "compress_level", "", 0, kInt,
      FIELD(AnalysisOverride, Level)),
    D("analysis", "compress_error_bound", "", 0, kInf,
      FIELD(AnalysisOverride, ErrorBound)),
    E("analysis", "layout", "", kLayouts, FIELD(AnalysisOverride, Layout)),
    I("analysis", "layout_block", "", 0, 65536,
      FIELD(AnalysisOverride, LayoutBlock)),
  };
}

#undef FIELD

bool Is(const Row &r, std::string_view element, std::string_view attr)
{
  return r.Element == element && r.Attr == attr;
}

// hook: these elements switch their subsystem on by being present
bool PresenceEnables(std::string_view element)
{
  return element == "check" || element == "graph" ||
         element == "compress" || element == "fault";
}

// hook attributes: known to the element, applied by ApplyVizHooks
bool IsHookAttribute(std::string_view element, std::string_view attr)
{
  return element == "viz" && (attr == "range" || attr == "push_depth");
}

[[noreturn]] void Fail(const std::string &where, const std::string &why,
                       const std::string &text)
{
  throw std::runtime_error(where + ": " + why + ", got '" + text + "'");
}

// a row's valid range as text ("[2, 65536]", ">= 0")
std::string RangeText(const Row &r)
{
  std::ostringstream os;
  os.precision(10);
  if (r.Max >= kBig)
    os << ">= " << r.Min;
  else
    os << "[" << r.Min << ", " << r.Max << "]";
  return os.str();
}

double ParseNumber(const std::string &text, bool integer, double lo,
                   double hi, const std::string &where,
                   const std::string &range)
{
  char *end = nullptr;
  errno = 0;
  const double v = integer
                     ? static_cast<double>(std::strtoll(text.c_str(), &end, 10))
                     : std::strtod(text.c_str(), &end);
  if (text.empty() || *end || errno == ERANGE || !std::isfinite(v) ||
      v < lo || v > hi)
    Fail(where, std::string(integer ? "expected an integer " : "expected ") +
                  range, text);
  return v;
}

// the row of `<element> attr`, or nullptr
const Row *Find(std::string_view element, std::string_view attr)
{
  for (const Row &r : Rows())
    if (Is(r, element, attr))
      return &r;
  return nullptr;
}

// parse `text` as a value of `r`; errors name `where`
double Parse(const Row &r, const std::string &text, const std::string &where)
{
  if (r.Kind == Type::Bool)
  {
    bool b = false;
    if (!sxml::ParseBool(text, b))
      Fail(where, "expected 1/true/yes/on or 0/false/no/off", text);
    return b ? 1.0 : 0.0;
  }
  if (r.Kind == Type::Enum)
  {
    try
    {
      return r.Enum->Parse(text);
    }
    catch (const std::invalid_argument &e)
    {
      Fail(where, e.what(), text);
    }
  }
  return ParseNumber(text, r.Kind == Type::Int, r.Min, r.Max, where,
                     RangeText(r));
}

// parse and store one value, then run the row's hooks
void Apply(const Row &r, const std::string &text, const std::string &where,
           void *cfg)
{
  r.Set(cfg, Parse(r, text, where));
  // hook: "aosoa<B>" names the block size too
  if (r.Enum == &kLayouts)
  {
    std::size_t block = 0;
    vp::layout::KindFromName(text, &block);
    if (block)
      Find(r.Element, r.Element == "layout" ? "block" : "layout_block")
        ->Set(cfg, static_cast<double>(block));
  }
  // hook: naming a service codec turns the override on
  if (Is(r, "service", "codec"))
    static_cast<ServiceConfig *>(cfg)->HaveCodecOverride = true;
}

void ApplyEnvRow(const Row &r, void *cfg)
{
  if (r.Env.empty())
    return;
  const char *v = std::getenv(std::string(r.Env).c_str());
  if (v && *v)
    Apply(r, v, std::string(r.Env), cfg);
}

void Emit(const Row &r, const void *cfg, sxml::Element &el)
{
  const double v = r.Get(cfg);
  const std::string attr(r.Attr);
  switch (r.Kind)
  {
    case Type::Bool: el.SetAttributeBool(attr, v != 0.0); break;
    case Type::Int: el.SetAttributeInt(attr, static_cast<long long>(v)); break;
    case Type::Double: el.SetAttributeDouble(attr, v); break;
    case Type::Enum: el.SetAttribute(attr, Format(r, v)); break;
  }
}

void ApplyEnvRows(std::string_view element, void *cfg)
{
  for (const Row &r : Rows())
    if (r.Element == element)
      ApplyEnvRow(r, cfg);
}

} // namespace

bool AnalysisOverride::operator==(const AnalysisOverride &o) const
{
  // qualifiers only carry meaning while their override is set
  return this->Policy == o.Policy && this->Codec == o.Codec &&
         this->Layout == o.Layout &&
         (this->Codec < 0 ||
          (this->Level == o.Level && this->ErrorBound == o.ErrorBound)) &&
         (this->Layout < 0 || this->LayoutBlock == o.LayoutBlock);
}

std::string Row::Name() const
{
  return "<" + std::string(this->Element) + "> " + std::string(this->Attr);
}

const std::vector<Row> &Rows()
{
  static const std::vector<Row> rows = MakeRows();
  return rows;
}

const std::vector<std::string> &Elements()
{
  static const std::vector<std::string> names = []
  {
    std::vector<std::string> out;
    for (const Row &r : Rows())
      if (r.Element != "analysis" &&
          (out.empty() || out.back() != r.Element))
        out.emplace_back(r.Element);
    return out;
  }();
  return names;
}

const void *Section(const Settings &s, std::string_view e)
{
  if (e == "pool") return &s.Pool;
  if (e == "check") return &s.Check;
  if (e == "sched") return &s.Sched;
  if (e == "compress") return &s.Compress;
  if (e == "exec") return &s.Exec;
  if (e == "graph") return &s.Graph;
  if (e == "layout") return &s.Layout;
  if (e == "service") return &s.Service;
  if (e == "viz") return &s.Viz;
  if (e == "fault") return &s.Fault;
  throw std::logic_error("vp::knobs: no section for <" + std::string(e) + ">");
}

void *Section(Settings &s, std::string_view element)
{
  return const_cast<void *>(
    Section(static_cast<const Settings &>(s), element));
}

std::string Format(const Row &r, double v)
{
  switch (r.Kind)
  {
    case Type::Bool: return v != 0.0 ? "1" : "0";
    case Type::Int: return std::to_string(static_cast<long long>(v));
    case Type::Enum: return r.Enum->Name(static_cast<int>(v));
    case Type::Double: break;
  }
  std::ostringstream os;
  os << v;
  return os.str();
}

void ApplyElement(const sxml::Element &el, Settings &s)
{
  const std::string &name = el.Name();
  void *cfg = Section(s, name);
  for (const auto &kv : el.Attributes())
    if (!Find(name, kv.first) && !IsHookAttribute(name, kv.first))
      throw std::runtime_error("<" + name + ">: unknown attribute '" +
                               kv.first + "'");
  if (PresenceEnables(name))
    Find(name, "enabled")->Set(cfg, 1.0);
  for (const Row &r : Rows())
    if (r.Element == name && el.HasAttribute(std::string(r.Attr)))
      Apply(r, el.Attribute(std::string(r.Attr)), r.Name(), cfg);
}

void ApplyEnv(std::string_view element, Settings &s)
{
  ApplyEnvRows(element, Section(s, element));
}

void ApplyVizHooks(const sxml::Element &ze, Settings &s)
{
  if (ze.HasAttribute("range"))
  {
    const std::string text = ze.Attribute("range");
    const std::size_t comma = text.find(',');
    if (comma == std::string::npos)
      Fail("<viz> range", "expected 'lo,hi'", text);
    s.Viz.Lo = ParseNumber(text.substr(0, comma), false, -kInf, kInf,
                           "<viz> range", "'lo,hi'");
    s.Viz.Hi = ParseNumber(text.substr(comma + 1), false, -kInf, kInf,
                           "<viz> range", "'lo,hi'");
    s.Viz.AutoRange = false;
  }

  // per-viewer fidelity overrides, matched by admission order
  s.Viz.Viewers.clear();
  for (const sxml::Element *we : ze.ChildrenNamed("viewer"))
  {
    viz::ViewerOverride ov;
    ov.Width = static_cast<std::uint32_t>(ParseNumber(
      we->Attribute("width", "0"), true, 0, 65536, "<viewer> width",
      "[0, 65536]"));
    ov.Height = static_cast<std::uint32_t>(ParseNumber(
      we->Attribute("height", "0"), true, 0, 65536, "<viewer> height",
      "[0, 65536]"));
    if (we->HasAttribute("codec"))
    {
      ov.HaveCodec = true;
      ov.Codec.Codec = static_cast<cmp::CodecId>(
        Parse(*Find("viz", "codec"), we->Attribute("codec"), "<viewer> codec"));
    }
    s.Viz.Viewers.push_back(ov);
  }

  // the frame outbox rides the service layer
  if (ze.HasAttribute("push_depth"))
    s.Service.PushDepth = static_cast<long>(
      ParseNumber(ze.Attribute("push_depth"), true, 1, kBig,
                  "<viz> push_depth", ">= 1"));
}

void ApplyAnalysis(const sxml::Element &el, AnalysisOverride &ov)
{
  for (const Row &r : Rows())
    if (r.Element == "analysis" && el.HasAttribute(std::string(r.Attr)))
      Apply(r, el.Attribute(std::string(r.Attr)), r.Name(), &ov);
}

void EmitElement(const Settings &s, std::string_view element,
                 sxml::Element &el)
{
  el.ClearAttributes();
  const void *cfg = Section(s, element);
  for (const Row &r : Rows())
    if (r.Element == element)
      Emit(r, cfg, el);
}

void EmitAnalysis(const AnalysisOverride &ov, sxml::Element &el)
{
  // an enum row sets an override; the rows after it qualify it
  bool set = false;
  for (const Row &r : Rows())
  {
    if (r.Element != "analysis")
      continue;
    if (r.Kind == Type::Enum)
      set = r.Get(&ov) >= 0.0;
    if (set)
      Emit(r, &ov, el);
  }
}

vp::exec::ExecConfig FromEnv(vp::exec::ExecConfig c)
{
  // hook: this runs lazily inside exec::GetConfig() and must not throw,
  // so a malformed value keeps the bit-exact serial default
  for (const Row &r : Rows())
    if (r.Element == "exec")
      try
      {
        ApplyEnvRow(r, &c);
      }
      catch (const std::runtime_error &)
      {
      }
  return c;
}

vp::graph::GraphConfig FromEnv(vp::graph::GraphConfig c)
{
  ApplyEnvRows("graph", &c);
  return c;
}

vp::layout::LayoutConfig FromEnv(vp::layout::LayoutConfig c)
{
  ApplyEnvRows("layout", &c);
  return c;
}

vp::check::CheckConfig FromEnv(vp::check::CheckConfig c)
{
  ApplyEnvRows("check", &c);
  return c;
}

} // namespace knobs
} // namespace vp
