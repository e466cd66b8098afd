#ifndef senseiConfigurableAnalysis_h
#define senseiConfigurableAnalysis_h

/// @file senseiConfigurableAnalysis.h
/// SENSEI's run-time configuration feature: an analysis adaptor that
/// builds and drives a chain of back ends from an XML document, enabling
/// run time switching between back ends through a single simulation
/// instrumentation. The paper's new execution-method and placement
/// controls are exposed here as XML attributes common to every
/// <analysis> element:
///
///   <sensei>
///     <sched policy="cost-model" queue_depth="4"/>
///     <analysis type="data_binning" mesh="bodies"
///               axes="x,y" resolution="256,256"
///               ops="sum" values="m"
///               device="auto" devices_to_use="1" device_start="3"
///               device_stride="1" async="1" enabled="1"/>
///     <analysis type="histogram"  mesh="bodies" column="m" bins="64"
///               device="host"/>
///     <analysis type="posthoc_io" mesh="bodies" dir="." prefix="p"
///               frequency="5" format="csv"/>
///   </sensei>
///
/// `device` accepts an explicit id, "host", or "auto" (Eq. 1 placement
/// with the optional devices_to_use / device_start / device_stride
/// controls). The subsystem elements (<pool>, <sched>, <exec>, ...) and
/// the per-analysis policy / compress* / layout* overrides are the rows
/// of the knob table (vpKnobs.h).

#include "senseiAnalysisAdaptor.h"

#include <string>
#include <vector>

namespace sxml
{
class Element;
}

namespace sensei
{

class ConfigurableAnalysis : public AnalysisAdaptor
{
public:
  static ConfigurableAnalysis *New() { return new ConfigurableAnalysis; }

  const char *GetClassName() const override
  {
    return "sensei::ConfigurableAnalysis";
  }

  /// Build the analysis chain from an XML file. Throws on parse or
  /// configuration errors.
  void InitializeFile(const std::string &path);

  /// Build the analysis chain from an XML string.
  void InitializeString(const std::string &xml);

  /// Build the analysis chain from a parsed document.
  void Initialize(const sxml::Element &root);

  /// Forward the step to every enabled back end (in document order).
  /// Returns false when any back end fails.
  bool Execute(DataAdaptor *data) override;

  /// Wait for every back end's in-flight asynchronous work.
  void DrainAsync() override;

  /// Drain every back end, then finalize each; returns the first
  /// nonzero status.
  int Finalize() override;

  /// Number of configured back ends.
  int GetNumberOfAnalyses() const
  {
    return static_cast<int>(this->Analyses_.size());
  }

  /// Back end by index (borrowed reference; nullptr when out of range).
  AnalysisAdaptor *GetAnalysis(int i) const;

protected:
  ConfigurableAnalysis() = default;
  ~ConfigurableAnalysis() override;

private:
  AnalysisAdaptor *BuildAnalysis(const sxml::Element &el);
  void ApplyCommon(const sxml::Element &el, AnalysisAdaptor *a);

  std::vector<AnalysisAdaptor *> Analyses_;
  sched::PolicyKind SchedPolicy_ = sched::PolicyKind::Static;
  bool HaveSchedPolicy_ = false; ///< a <sched> element set the default
};

} // namespace sensei

#endif
