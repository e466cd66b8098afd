// The two coupled in situ workloads: Newton++ ranks stepping the solver
// and handing each step to a ConfigurableAnalysis chain.
//
// Every step of a run is fenced by barriers so that the timed window on
// rank 0 is exactly the slowest rank's solver + in situ step, and the
// correctness checks (which download the bodies and run collectives of
// their own) happen outside it.

#include "bench.h"

#include "campaign.h"
#include "minimpi.h"
#include "newtonDriver.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataBinning.h"
#include "svtkAOSDataArray.h"
#include "sxml.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>

namespace pb
{
namespace
{

constexpr long WarmupSteps = 3;

/// One binning analysis of the chain, as the XML declares it.
struct BinningSpec
{
  int Index = 0; ///< position in the ConfigurableAnalysis chain
  std::string AxisX, AxisY;
  long Resolution = 0;
  std::vector<std::string> Values; ///< summed columns ("" entries dropped)
};

std::vector<std::string> SplitList(const std::string &s)
{
  std::vector<std::string> out;
  std::string cur;
  std::istringstream is(s);
  while (std::getline(is, cur, ','))
    out.push_back(cur);
  if (!s.empty() && s.back() == ',')
    out.emplace_back();
  return out;
}

std::vector<BinningSpec> BinningSpecs(const std::string &xml)
{
  std::vector<BinningSpec> out;
  const std::unique_ptr<sxml::Element> root = sxml::Parse(xml);
  int index = 0;
  for (const sxml::Element *el : root->ChildrenNamed("analysis"))
  {
    if (el->Attribute("type") == "data_binning")
    {
      BinningSpec b;
      b.Index = index;
      const std::vector<std::string> axes = SplitList(el->Attribute("axes"));
      b.AxisX = axes.at(0);
      b.AxisY = axes.at(1);
      b.Resolution = std::stol(SplitList(el->Attribute("resolution")).at(0));
      const std::vector<std::string> ops = SplitList(el->Attribute("ops"));
      const std::vector<std::string> vals = SplitList(el->Attribute("values"));
      for (std::size_t i = 0; i < ops.size() && i < vals.size(); ++i)
        if (ops[i] == "sum" && !vals[i].empty())
          b.Values.push_back(vals[i]);
      out.push_back(b);
    }
    ++index;
  }
  return out;
}

/// The result arrays of a binning analysis ("count", then the sums).
std::string CheckBinning(sensei::ConfigurableAnalysis *chain,
                         const BinningSpec &spec, const RefGrid &ref,
                         long expectExecutes)
{
  auto *b = dynamic_cast<sensei::DataBinning *>(chain->GetAnalysis(spec.Index));
  if (!b)
    return "analysis " + std::to_string(spec.Index) + " is not a binning";
  if (b->GetExecuteCount() != expectExecutes)
    return "binning " + std::to_string(spec.Index) + " ran " +
           std::to_string(b->GetExecuteCount()) + " times, expected " +
           std::to_string(expectExecutes);
  svtkImageData *img = b->GetLastResult();
  if (!img)
    return "binning " + std::to_string(spec.Index) + " has no result";
  std::vector<std::string> names{"count"};
  for (const std::string &v : spec.Values)
    names.push_back(v + "_sum");
  std::vector<const std::vector<double> *> got;
  for (const std::string &n : names)
  {
    auto *a = dynamic_cast<svtkAOSDoubleArray *>(img->GetPointData()->GetArray(n));
    got.push_back(a ? &a->GetVector() : nullptr);
  }
  std::string err = CompareGrid(ref, got, names);
  img->UnRegister();
  if (!err.empty())
    err = "binning " + spec.AxisX + "," + spec.AxisY + ": " + err;
  return err;
}

/// Host copy of one rank's columns, derived variables included (the
/// formulas of newton::DataAdaptor).
std::map<std::string, std::vector<double>> HostColumns(newton::Solver &s)
{
  newton::BodySet b = s.DownloadBodies();
  std::map<std::string, std::vector<double>> c;
  const std::size_t n = b.Size();
  std::vector<double> speed(n), ke(n), r(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    const double v2 = b.VX[i] * b.VX[i] + b.VY[i] * b.VY[i] + b.VZ[i] * b.VZ[i];
    speed[i] = std::sqrt(v2);
    ke[i] = 0.5 * b.M[i] * v2;
    r[i] = std::sqrt(b.X[i] * b.X[i] + b.Y[i] * b.Y[i] + b.Z[i] * b.Z[i]);
  }
  c["x"] = std::move(b.X);
  c["y"] = std::move(b.Y);
  c["z"] = std::move(b.Z);
  c["vx"] = std::move(b.VX);
  c["vy"] = std::move(b.VY);
  c["vz"] = std::move(b.VZ);
  c["m"] = std::move(b.M);
  c["speed"] = std::move(speed);
  c["ke"] = std::move(ke);
  c["r"] = std::move(r);
  return c;
}

/// The global reference grid of one binning spec (collective).
RefGrid GlobalReference(minimpi::Communicator &comm, newton::Solver &solver,
                        const BinningSpec &spec)
{
  const std::map<std::string, std::vector<double>> cols = HostColumns(solver);
  const std::vector<double> &ax = cols.at(spec.AxisX);
  const std::vector<double> &ay = cols.at(spec.AxisY);
  RefGrid g;
  RefRange(ax.data(), ax.size(), g.Lo[0], g.Hi[0]);
  RefRange(ay.data(), ay.size(), g.Lo[1], g.Hi[1]);
  comm.Allreduce(g.Lo, 2, minimpi::Op::Min);
  comm.Allreduce(g.Hi, 2, minimpi::Op::Max);
  for (int a = 0; a < 2; ++a)
  {
    if (!std::isfinite(g.Lo[a]) || !std::isfinite(g.Hi[a]))
    {
      g.Lo[a] = 0.0;
      g.Hi[a] = 1.0;
    }
    if (!(g.Hi[a] > g.Lo[a]))
      g.Hi[a] = g.Lo[a] + 1.0;
  }
  std::vector<const double *> vals;
  for (const std::string &v : spec.Values)
    vals.push_back(cols.at(v).data());
  RefAccumulate(g, spec.Resolution, ax.data(), ay.data(), vals, ax.size());
  comm.Allreduce(g.Count.data(), g.Count.size(), minimpi::Op::Sum);
  for (std::size_t k = 0; k < g.Sum.size(); ++k)
  {
    comm.Allreduce(g.Sum[k].data(), g.Sum[k].size(), minimpi::Op::Sum);
    comm.Allreduce(g.AbsSum[k].data(), g.AbsSum[k].size(), minimpi::Op::Sum);
  }
  return g;
}

/// How a coupled workload differs from the other one.
struct Coupled
{
  vp::PlatformConfig Platform;
  newton::Config Sim;
  minimpi::LaunchOptions Launch;
  std::string Xml;
  /// Per-step check on every rank, outside the timed window (collective
  /// when it needs to be). Returns an error message, empty on success.
  std::function<std::string(minimpi::Communicator &, newton::Solver &,
                            sensei::ConfigurableAnalysis *, long step)>
    Check;
  double EnergyTolerance = 0; ///< relative energy drift allowed per episode
};

Episode RunCoupled(const Coupled &w, const Options &opt)
{
  Episode ep;
  const double tStart = Now();
  vp::Platform::Initialize(w.Platform);

  const bool trace = opt.Trace;
  const int ranks = w.Launch.Ranks;
  std::atomic<bool> stop{false};
  double setupEnd = 0, benchPrep = 0;
  Counters cPrev;
  std::vector<std::vector<double>> solverTimes(static_cast<std::size_t>(ranks));
  std::vector<double> solvedAt(static_cast<std::size_t>(ranks), 0.0);
  std::size_t pairsPerStep = 0, rowsPerStep = 0;
  const std::vector<BinningSpec> specs = BinningSpecs(w.Xml);

  minimpi::Run(
    w.Launch,
    [&](minimpi::Communicator &comm)
    {
      const int rank = comm.Rank();
      const bool root = rank == 0;
      Tracer::Get().NameThread("rank " + std::to_string(rank));

      sensei::ConfigurableAnalysis *chain = sensei::ConfigurableAnalysis::New();
      chain->InitializeString(w.Xml);
      auto driver = std::make_unique<newton::Driver>(&comm, w.Sim, chain);
      chain->UnRegister(); // newton::Driver holds the reference
      driver->Initialize();
      newton::Solver &solver = driver->GetSolver();
      newton::DataAdaptor *bridge = driver->GetBridge();

      std::vector<double> &myStep = solverTimes[static_cast<std::size_t>(rank)];
      auto body = [&](long s, double *tSolved, double *vt)
      {
        const double t0 = Now();
        vt[0] = vp::ThisClock().Now();
        {
          Span sp("newton.step", s);
          solver.Step();
        }
        *tSolved = Now();
        vt[1] = vp::ThisClock().Now();
        if (s >= 0)
          myStep.push_back(*tSolved - t0);
        {
          Span sp("core.update", s);
          bridge->Update();
        }
        {
          Span sp("core.execute", s);
          chain->Execute(bridge);
        }
        {
          Span sp("core.release", s);
          bridge->ReleaseData();
        }
        vt[2] = vp::ThisClock().Now();
      };

      double tSolved = 0, vt[3] = {0, 0, 0};
      for (long s = 0; s < WarmupSteps; ++s)
        body(-1, &tSolved, vt);
      myStep.clear();

      // the benchmark's own preparation: reference energy and totals
      const double prep0 = Now();
      const double e0 = solver.TotalEnergy();
      const double bodies = static_cast<double>(solver.GlobalBodies());
      double mass = 0;
      {
        const newton::BodySet b = solver.DownloadBodies();
        for (double m : b.M)
          mass += m;
        comm.Allreduce(&mass, 1, minimpi::Op::Sum);
      }
      const std::size_t local = solver.LocalBodies();
      comm.Barrier();
      if (root)
      {
        benchPrep = Now() - prep0;
        setupEnd = Now();
        ep.SetupSeconds = setupEnd - tStart - benchPrep;
        pairsPerStep = local * static_cast<std::size_t>(bodies);
        rowsPerStep = local * specs.size();
      }

      const long doneBefore = WarmupSteps;
      for (long s = 0;; ++s)
      {
        if (trace)
        {
          comm.Barrier();
          if (root)
            cPrev = Counters::Read();
        }
        comm.Barrier();
        double wall0 = 0, cpu0 = 0;
        if (root)
        {
          wall0 = Now();
          cpu0 = ProcessCpu();
        }
        const double t0 = Now();
        body(s, &tSolved, vt);
        const double t2 = Now();
        solvedAt[static_cast<std::size_t>(rank)] = tSolved;
        {
          Span sp("comm.barrier", s);
          comm.Barrier();
        }
        if (root)
        {
          const double wall1 = Now();
          ep.CpuSeconds += ProcessCpu() - cpu0;
          ep.StepWall.push_back(wall1 - wall0);
          // the analysis' collectives wait for the last rank's data, so
          // the hand-off is when the slowest rank finished its step
          ep.StepLatency.push_back(
            t2 - *std::max_element(solvedAt.begin(), solvedAt.end()));
          ++ep.TimedSteps;
          if (trace)
          {
            Tracer::Get().Add("step", wall0, wall1, s);
            ep.Delta += Counters::Read() - cPrev;
            ep.Layer["vp.virtual_step_s"].push_back(vt[2] - vt[0]);
            ep.Layer["vp.virtual_solver_s"].push_back(vt[1] - vt[0]);
            ep.Layer["vp.virtual_insitu_s"].push_back(vt[2] - vt[1]);
            ep.Layer["newton.pairs_per_s"].push_back(
              static_cast<double>(pairsPerStep) / (tSolved - t0));
          }
          stop = wall1 - setupEnd >= opt.Seconds;
        }
        comm.Barrier(); // publishes `stop`; checks start together

        std::string err = w.Check(comm, solver, chain, doneBefore + s + 1);
        if (root && err.empty())
        {
          // rank 0's binning result must total the bodies and the mass
          for (const BinningSpec &spec : specs)
          {
            auto *b =
              dynamic_cast<sensei::DataBinning *>(chain->GetAnalysis(spec.Index));
            svtkImageData *img = b ? b->GetLastResult() : nullptr;
            if (!img)
            {
              err = "binning has no result";
              break;
            }
            double nSum = 0, mSum = 0;
            bool haveMass = false;
            for (double v : dynamic_cast<svtkAOSDoubleArray *>(
                              img->GetPointData()->GetArray("count"))
                              ->GetVector())
              nSum += v;
            if (auto *m = dynamic_cast<svtkAOSDoubleArray *>(
                  img->GetPointData()->GetArray("m_sum")))
            {
              haveMass = true;
              for (double v : m->GetVector())
                mSum += v;
            }
            img->UnRegister();
            if (nSum != bodies)
              err = "count grid totals " + std::to_string(nSum) + " of " +
                    std::to_string(bodies) + " bodies";
            else if (haveMass && std::fabs(mSum - mass) > 1e-9 * mass)
              err = "mass grid totals " + std::to_string(mSum) + ", mass " +
                    std::to_string(mass);
            if (!err.empty())
              break;
          }
        }
        if (root)
        {
          ++ep.Attempted;
          if (!err.empty())
            ep.Fail("step " + std::to_string(s) + ": " + err);
        }
        if (stop)
          break;
      }

      const double e1 = solver.TotalEnergy();

      // the drain: what the analysis side still does once the last data
      // is handed over — the last step's in situ work (its latency, taken
      // above), then every chain's Finalize (async work drains) and the
      // release of the chain and the solver state, timed on rank 0 alone
      // since barrier wake-ups would dwarf it
      comm.Barrier();
      const double d0 = Now();
      {
        Span sp("core.finalize", -1);
        chain->Finalize();
      }
      driver.reset();
      if (root)
        ep.DrainSeconds = ep.StepLatency.back() + Now() - d0;
      comm.Barrier();

      if (root)
      {
        // the integrator is symplectic: the energy error oscillates within
        // a band instead of growing with the steps taken (measured 0.3-0.7%
        // after 10 steps and after 65), so one bound holds for any length
        const double drift = std::fabs((e1 - e0) / e0);
        ep.Values["newton.energy_drift"] = drift;
        if (std::isfinite(w.EnergyTolerance) && !(drift <= w.EnergyTolerance))
        {
          // every step of the episode carries the drifted state
          const long n = ep.Attempted - ep.Failed;
          for (long i = 0; i < n; ++i)
            ep.Fail("relative energy drift " + std::to_string(drift) +
                    " exceeds " + std::to_string(w.EnergyTolerance));
        }
      }
    });

  if (trace)
  {
    const std::size_t n = ep.StepWall.size();
    for (std::size_t i = 0; i < n; ++i)
    {
      double lo = 1e300, hi = 0;
      for (const std::vector<double> &r : solverTimes)
        if (i < r.size())
        {
          lo = std::min(lo, r[i]);
          hi = std::max(hi, r[i]);
        }
      ep.Layer["newton.rank_skew"].push_back(hi / lo);
    }
    ep.Values["rows_binned_per_step"] = static_cast<double>(rowsPerStep);
  }
  return ep;
}

} // namespace

// ---------------------------------------------------------------------------
Episode RunInsituNbody(const Options &opt, std::string &xml)
{
  // nbody_insitu's chain without the posthoc IO: x-y mass binning on the
  // data's device, lockstep, plus a host histogram of the speed
  xml = R"(<sensei>
  <analysis type="data_binning" mesh="bodies" axes="x,y" resolution="128,128"
            ops="sum,count" values="m," device="auto" async="0"/>
  <analysis type="histogram" mesh="bodies" column="speed" bins="32"
            device="host"/>
</sensei>)";

  Coupled w;
  w.Platform.NumNodes = 1;
  w.Platform.DevicesPerNode = 4;
  w.Platform.HostCoresPerNode = 64;
  w.Sim.TotalBodies = 4096;
  w.Sim.Ic = newton::InitialCondition::Galaxy;
  w.Sim.CentralMass = 200.0;
  // nbody_insitu steps at 5e-4, where the orbits closest to the central
  // mass are under-resolved and the energy drifts ~0.3% per step; a 4x
  // smaller step keeps it within 0.7% and costs the same
  w.Sim.Dt = 1.25e-4;
  w.Sim.Seed = opt.Seed;
  w.Launch.Ranks = 2;
  w.Xml = xml;
  w.EnergyTolerance = 2e-2;
  w.Check = [](minimpi::Communicator &, newton::Solver &,
               sensei::ConfigurableAnalysis *, long) { return std::string(); };
  return RunCoupled(w, opt);
}

Episode RunTable1Binning(const Options &opt, std::string &xml)
{
  // Table 1, "2 dedicated devices, asynchronous": 2 ranks, 9 coordinate
  // systems x 10 summed variables at 128^2 on the paired device
  campaign::CampaignConfig g;
  g.Nodes = 1;
  g.BodiesPerNode = 1024;
  g.Resolution = 128;
  g.CoordSystems = 9;
  g.VariablesPerSystem = 10;
  g.TimingOnly = false;
  g.Seed = opt.Seed;
  const campaign::CaseConfig c{campaign::Placement::TwoDedicated, true};
  xml = campaign::BuildXml(c, g);

  Coupled w;
  w.Platform.NumNodes = 1;
  w.Platform.DevicesPerNode = 4;
  w.Platform.HostCoresPerNode = 64;
  w.Platform.ExecuteKernels = true;
  w.Sim.TotalBodies = g.BodiesPerNode;
  w.Sim.Seed = g.Seed;
  w.Sim.CentralMass = 100.0;
  w.Sim.Repartition = false;
  w.Sim.SimDevices = campaign::SimDevices(c.Place);
  w.Launch.Ranks = campaign::RanksPerNode(c.Place);
  w.Launch.RanksPerNode = w.Launch.Ranks;
  w.Xml = xml;
  // the Table-1 case keeps the campaign's uniform IC and step, whose energy
  // is not conserved to any useful tolerance; the grids are checked instead
  w.EnergyTolerance = std::numeric_limits<double>::infinity();

  // each step checks one coordinate system's count grid and all ten sum
  // grids against a reference built from the bodies; the nine systems
  // rotate, so every one of the 90 reductions is checked every 9 steps
  const std::vector<BinningSpec> specs = BinningSpecs(xml);
  w.Check = [specs](minimpi::Communicator &comm, newton::Solver &solver,
                    sensei::ConfigurableAnalysis *chain, long executed)
  {
    const BinningSpec &spec =
      specs[static_cast<std::size_t>(executed) % specs.size()];
    const RefGrid ref = GlobalReference(comm, solver, spec);
    std::string err;
    if (comm.Rank() == 0)
      err = CheckBinning(chain, spec, ref, executed);
    return err;
  };
  return RunCoupled(w, opt);
}

} // namespace pb
