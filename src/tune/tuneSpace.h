#ifndef tuneSpace_h
#define tuneSpace_h

/// @file tuneSpace.h
/// The campaign auto-tuner's configuration-space model. PRs 1-7 grew the
/// run-time configuration surface to placement policy x queue depth x
/// backpressure x codec/level/error-bound x pool knobs x exec mode/threads
/// x graph capture — far beyond what hand-written `configs/*.xml` can
/// cover. This header makes that space a first-class object:
///
///  * `ConfigPoint` — one point in the space: the subsystem config
///    structs of the knob table (vpKnobs.h) plus optional per-analysis
///    overrides.
///  * `Knob` / `KnobSpace` — typed knob descriptors (bool, enum,
///    power-of-two, linear int, log-scale double) with bounds and
///    neighbourhood moves, so a search algorithm can mutate points
///    generically without knowing what each knob means. The knobs are
///    the table rows that carry a search domain.
///  * the XML emitter/parser — any point serializes to a loadable SENSEI
///    configuration (ApplyToDoc / EmitXml) and parses back field for
///    field (ParseDoc) through the same rows ConfigurableAnalysis uses,
///    which is what makes offline search results shippable as
///    `configs/tuned_campaign.xml`.

#include "vpKnobs.h"

#include <cstddef>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace sxml
{
class Element;
}

namespace tune
{

/// Per-analysis overrides (placement policy, codec, layout), index-aligned
/// with the `<analysis>` children of the document a point is applied to.
using AnalysisOverride = vp::knobs::AnalysisOverride;

/// The override vector; entries beyond it (or default entries) follow
/// the run-wide configuration, so a short vector equals one padded with
/// default entries.
struct OverrideList : std::vector<AnalysisOverride>
{
  using std::vector<AnalysisOverride>::vector;
  bool operator==(const OverrideList &o) const;
};

/// One point in the scheduling space: the subsystem configurations of
/// the knob table plus the per-analysis overrides. The tuner models the
/// elements with tunable rows; the others stay at their defaults.
struct ConfigPoint : vp::knobs::Settings
{
  /// The tune origin is the subsystem defaults, except for a positive
  /// compress error bound (cmp::Params defaults to 0) so a move onto the
  /// quantize codec always validates.
  ConfigPoint() { this->Compress.Default.ErrorBound = 1e-4; }

  OverrideList Overrides;

  bool operator==(const ConfigPoint &) const = default;
};

/// How a knob's value moves through its domain.
using KnobKind = vp::knobs::Scale;

/// One typed knob descriptor: bounds, choices, and accessors into a
/// ConfigPoint. Values travel as double (enums/bools as their index).
struct Knob
{
  std::string Name; ///< "sched.queue_depth", "analysis3.policy", ...
  KnobKind Kind = KnobKind::Int;
  double Min = 0.0;
  double Max = 0.0;
  double Step = 2.0; ///< LogDouble neighbour factor
  std::vector<std::string> Choices; ///< Enum labels (diagnostics)
  std::function<double(const ConfigPoint &)> Get;
  std::function<void(ConfigPoint &, double)> Set;

  /// Number of distinct values this knob can take.
  std::size_t Cardinality() const;
};

/// The tunable space: an ordered set of knobs over ConfigPoint.
class KnobSpace
{
public:
  /// The campaign space: every tunable row of the knob table in table
  /// order (`<pool>`, `<sched>`, `<compress>`, `<exec>`, `<graph>`,
  /// `<layout>`, `<viz>`), plus a per-analysis placement-policy override
  /// knob for each of `nAnalyses` analyses (0 = no per-analysis knobs).
  /// `includeExec` drops the `<exec>` knobs for searches that only score
  /// virtual time (exec mode cannot change it).
  static KnobSpace Campaign(int nAnalyses = 0, bool includeExec = true);

  const std::vector<Knob> &Knobs() const { return this->Knobs_; }

  /// Product of knob cardinalities (size of the discrete space; may
  /// saturate for log-double knobs, diagnostics only).
  double Size() const;

  /// A uniformly random point (each knob independently uniform over its
  /// domain).
  ConfigPoint Random(std::mt19937_64 &rng) const;

  /// Move one uniformly chosen knob of `p` to a neighbouring value
  /// (guaranteed to change it). Returns "knob-name: old -> new".
  std::string Neighbor(ConfigPoint &p, std::mt19937_64 &rng) const;

  /// Clamp every knob of `p` into its domain.
  void Clamp(ConfigPoint &p) const;

private:
  std::vector<Knob> Knobs_;
};

/// Overlay `p` onto a parsed `<sensei>` document: every element with a
/// tunable row is created (or taken over) with all its rows explicit,
/// and per-analysis override attributes are written onto the i-th
/// `<analysis>` child. Fully explicit emission is what makes evaluations
/// order-independent: no knob of a previous candidate can leak through
/// process-wide state.
void ApplyToDoc(const ConfigPoint &p, sxml::Element &root);

/// A standalone `<sensei>` document holding only the subsystem elements
/// of `p` (no analyses): the exchange format for search traces and the
/// cache key for the evaluator.
std::string EmitXml(const ConfigPoint &p);

/// Read a point back from a parsed `<sensei>` document: the same row
/// parse as ConfigurableAnalysis, minus the environment and Configure.
/// Attributes or elements that are absent keep the ConfigPoint defaults;
/// elements the tuner does not model (`<check>`, `<fault>`, `<service>`)
/// are ignored. Throws std::runtime_error on out-of-domain values.
ConfigPoint ParseDoc(const sxml::Element &root);

/// ParseDoc over parsed text / a file on disk.
ConfigPoint ParseXml(const std::string &xml);
ConfigPoint ParseFile(const std::string &path);

/// One-line human-readable description of a point (diagnostics, traces).
std::string Describe(const ConfigPoint &p);

} // namespace tune

#endif
