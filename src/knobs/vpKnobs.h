#ifndef vpKnobs_h
#define vpKnobs_h

/// @file vpKnobs.h
/// The configuration knob table: one row per run-time knob of the
/// `<sensei>` document — XML element and attribute, optional VP_*
/// environment override, value type and valid range, the config-struct
/// field it sets, and for tunable knobs the auto-tuner's search domain.
/// ConfigurableAnalysis, the subsystems' environment defaults and the
/// tuner's knob space and XML emitter/parser are derived from the rows.
///
/// Precedence is the same for every row: struct default < XML attribute
/// < environment variable. Parsing is strict; every failure (malformed
/// or out-of-range value, unknown attribute on a subsystem element) is a
/// std::runtime_error naming `<element> attr` or the variable. The
/// special cases are named hooks in vpKnobs.cxx; DESIGN.md §17 lists
/// them.

#include "cmpCodec.h"
#include "execEngine.h"
#include "graphCapture.h"
#include "layoutMapping.h"
#include "schedPipeline.h"
#include "svcSession.h"
#include "vizConfig.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"
#include "vpMemoryPool.h"

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace sxml
{
class Element;
}

namespace vp
{
namespace knobs
{

/// Every subsystem configuration a `<sensei>` document can set, one
/// member per subsystem element.
struct Settings
{
  vp::PoolConfig Pool;             ///< <pool>
  vp::check::CheckConfig Check;    ///< <check>
  sched::SchedConfig Sched;        ///< <sched>
  cmp::Config Compress;            ///< <compress>
  vp::exec::ExecConfig Exec;       ///< <exec>
  vp::graph::GraphConfig Graph;    ///< <graph>
  vp::layout::LayoutConfig Layout; ///< <layout>
  svc::ServiceConfig Service;      ///< <service>
  viz::VizConfig Viz;              ///< <viz>
  vp::fault::FaultConfig Fault;    ///< <fault>

  bool operator==(const Settings &) const = default;
};

/// The per-analysis overrides of one `<analysis>` element (its policy,
/// compress* and layout* attributes). A negative Policy, Codec or Layout
/// follows the run-wide default; the fields after each qualify it and
/// carry meaning only while it is set.
struct AnalysisOverride
{
  int Policy = -1;             ///< sched::PolicyKind when >= 0
  int Codec = -1;              ///< cmp::CodecId when >= 0
  int Level = 1;               ///< codec level
  double ErrorBound = 0.0;     ///< quantize bound
  int Layout = -1;             ///< vp::layout::Kind when >= 0
  std::size_t LayoutBlock = 0; ///< AoSoA block (0 = the run-wide one)

  bool IsDefault() const
  {
    return this->Policy < 0 && this->Codec < 0 && this->Layout < 0;
  }
  bool operator==(const AnalysisOverride &o) const;
};

/// A row's value type. Values travel as double (bools as 0/1, enums as
/// their index); integer ranges stay within 2^53, where that is exact.
enum class Type
{
  Bool,
  Int,
  Double,
  Enum
};

/// How a tunable knob's value moves through its search domain.
enum class Scale : int
{
  Bool = 0,   ///< flip
  Enum,       ///< adjacent choice (wrapping)
  PowerOfTwo, ///< x2 / /2 within [Min, Max]
  Int,        ///< +-1 within [Min, Max]
  LogDouble   ///< x/÷ Step within [Min, Max]
};

/// The tuner's domain of a row (Tunable = false: not searched).
struct Domain
{
  bool Tunable = false;
  Scale Kind = Scale::Int;
  double Min = 0.0;
  double Max = 0.0;
  double Step = 2.0;
};

/// An enum vocabulary: the subsystem's own name parser (aliases and
/// all) and canonical printer, over indices [0, Count).
struct Names
{
  int (*Parse)(const std::string &);
  const char *(*Name)(int);
  int Count;
};

/// One knob.
struct Row
{
  std::string_view Element; ///< "pool", ..., or "analysis"
  std::string_view Attr;
  std::string_view Env;     ///< VP_* override; empty when none
  Type Kind;
  double Min, Max;          ///< valid range (Int, Double)
  const Names *Enum;        ///< vocabulary (Enum)
  /// The bound field, in the struct of the row's element (a Settings
  /// member, or an AnalysisOverride for "analysis" rows).
  double (*Get)(const void *cfg);
  void (*Set)(void *cfg, double v);
  Domain Tune;

  /// "<element> attr", the name errors and the README use.
  std::string Name() const;
};

/// The table, subsystem elements in configuration order, then the
/// per-analysis rows.
const std::vector<Row> &Rows();

/// The subsystem elements, in configuration order.
const std::vector<std::string> &Elements();

/// The config struct of a subsystem element inside `s` (what a row's
/// Get/Set take).
void *Section(Settings &s, std::string_view element);
const void *Section(const Settings &s, std::string_view element);

/// `v` as text (enum names, 0/1 bools; diagnostics).
std::string Format(const Row &r, double v);

/// Apply one subsystem element's attributes (and its presence hook) on
/// top of `s`. Throws on unknown attributes and bad values.
void ApplyElement(const sxml::Element &el, Settings &s);

/// Apply the environment overrides of `element`'s rows on top of `s`.
void ApplyEnv(std::string_view element, Settings &s);

/// The `<viz>` hooks that configure the live endpoint: range="lo,hi",
/// the `<viewer>` children and push_depth (a service knob).
void ApplyVizHooks(const sxml::Element &viz, Settings &s);

/// Apply one `<analysis>` element's override attributes on top of `ov`
/// (other attributes belong to the analysis type and are left alone).
void ApplyAnalysis(const sxml::Element &el, AnalysisOverride &ov);

/// Write every row of `element` from `s` onto `el`, replacing its
/// attributes.
void EmitElement(const Settings &s, std::string_view element,
                 sxml::Element &el);

/// Write the override attributes that are set (and their qualifiers).
void EmitAnalysis(const AnalysisOverride &ov, sxml::Element &el);

/// Struct defaults plus the environment: the subsystems' lazily read
/// DefaultConfig(). The exec one never throws: a malformed VP_EXEC or
/// VP_EXEC_THREADS keeps the bit-exact serial default.
vp::exec::ExecConfig FromEnv(vp::exec::ExecConfig c);
vp::graph::GraphConfig FromEnv(vp::graph::GraphConfig c);
vp::layout::LayoutConfig FromEnv(vp::layout::LayoutConfig c);
vp::check::CheckConfig FromEnv(vp::check::CheckConfig c);

} // namespace knobs
} // namespace vp

#endif
