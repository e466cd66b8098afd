// Every committed configs/*.xml must stay loadable and runnable: each
// file is pushed through the real consumer (ConfigurableAnalysis, which
// constructs the analysis chain and configures every subsystem element)
// and then scored on a one-step campaign case through the auto-tuner's
// evaluator, so a knob rename, a typo'd analysis type, or an
// out-of-domain attribute in any shipped configuration fails here
// instead of in a user's run. The knob table itself must be documented:
// every row appears in the README's configuration reference.

#include "campaign.h"
#include "layoutMapping.h"
#include "senseiConfigurableAnalysis.h"
#include "svcSession.h"
#include "tuneSearch.h"
#include "vizConfig.h"
#include "vpKnobs.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef VP_CONFIG_DIR
#define VP_CONFIG_DIR "configs"
#endif

namespace
{

std::vector<std::pair<std::string, std::string>> LoadAllConfigs()
{
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto &e : std::filesystem::directory_iterator(VP_CONFIG_DIR))
  {
    if (!e.is_regular_file() || e.path().extension() != ".xml")
      continue;
    std::ifstream is(e.path());
    std::ostringstream ss;
    ss << is.rdbuf();
    out.emplace_back(e.path().filename().string(), ss.str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ResetProcessState()
{
  // InitializeString configures process-wide subsystems from each file;
  // leave defaults behind for whatever test runs next
  svc::Configure(svc::ServiceConfig());
  viz::Configure(viz::VizConfig());
  vp::layout::Configure(vp::layout::LayoutConfig());
}

} // namespace

TEST(Configs, EveryConfigLoadsThroughConfigurableAnalysis)
{
  vp::PlatformConfig plat;
  plat.NumNodes = 1;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 8;
  plat.ExecuteKernels = false;
  vp::Platform::Initialize(plat);

  const auto files = LoadAllConfigs();
  ASSERT_FALSE(files.empty()) << "no configurations under " << VP_CONFIG_DIR;

  for (const auto &f : files)
  {
    SCOPED_TRACE(f.first);
    sensei::ConfigurableAnalysis *a = sensei::ConfigurableAnalysis::New();
    EXPECT_NO_THROW(a->InitializeString(f.second));
    a->UnRegister();
  }

  // and a typo'd knob on a subsystem element fails instead of being
  // silently ignored
  sensei::ConfigurableAnalysis *a = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(
    a->InitializeString(R"(<sensei><sched queue_dpth="4"/></sensei>)"),
    std::runtime_error);
  a->UnRegister();
  ResetProcessState();
}

TEST(Configs, EveryKnobIsInTheReadmeReference)
{
  std::ifstream is(std::string(VP_CONFIG_DIR) + "/../README.md");
  ASSERT_TRUE(is) << "no README.md next to " << VP_CONFIG_DIR;
  std::ostringstream ss;
  ss << is.rdbuf();
  const std::string readme = ss.str();
  for (const vp::knobs::Row &r : vp::knobs::Rows())
  {
    // one reference line per row: `<element> attr` | `VP_ENV` | ...
    const std::string name = "`" + r.Name() + "`";
    const std::size_t at = readme.find("| " + name + " |");
    ASSERT_NE(at, std::string::npos) << name << " missing from README.md";
    if (!r.Env.empty())
    {
      const std::string line = readme.substr(at, readme.find('\n', at) - at);
      EXPECT_NE(line.find("`" + std::string(r.Env) + "`"), std::string::npos)
        << name << " lists no " << r.Env;
    }
  }
}

TEST(Configs, EveryConfigRunsAOneStepCampaignCase)
{
  tune::EvalConfig ec;
  ec.Campaign.Nodes = 1;
  ec.Campaign.Steps = 1;
  ec.Campaign.BodiesPerNode = 10000;
  ec.Campaign.CoordSystems = 2;
  ec.Campaign.VariablesPerSystem = 2;
  campaign::CaseConfig c;
  c.Place = campaign::Placement::OneDedicated;
  c.Asynchronous = true;
  ec.Cases = {c};
  tune::Evaluator ev(ec);

  for (const auto &f : LoadAllConfigs())
  {
    SCOPED_TRACE(f.first);
    const tune::EvalResult r = ev.EvaluateXml(f.second);
    EXPECT_TRUE(r.Valid) << r.Error;
    EXPECT_GT(r.TotalSeconds, 0.0);
  }
  ResetProcessState();
}
