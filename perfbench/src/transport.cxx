// The two transport workloads: body tables generated by the benchmark
// are shipped from sender threads to an analysis on the receiving side,
// either through the in transit minimpi transport or through the
// shared-memory ring service. No solver runs.

#include "bench.h"

#include "minimpi.h"
#include "newtonInitialConditions.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataBinning.h"
#include "senseiInTransit.h"
#include "senseiService.h"
#include "sio.h"
#include "svcServer.h"
#include "svcSession.h"
#include "svtkAOSDataArray.h"
#include "vpPlatform.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

namespace pb
{
namespace
{

constexpr long WarmupSteps = 3;
constexpr int Variants = 2; ///< distinct tables each sender cycles through

/// A generated body table (columns x y z vx vy vz m id).
svtkTable *MakeTable(std::size_t rows, unsigned seed)
{
  newton::Config c;
  c.TotalBodies = rows;
  c.Ic = newton::InitialCondition::Galaxy;
  c.CentralMass = 0.0;
  c.Seed = seed;
  const newton::BodySet b = newton::GenerateInitialCondition(c, 0, 1);
  svtkTable *t = svtkTable::New();
  const std::pair<const char *, const std::vector<double> *> cols[] = {
    {"x", &b.X},   {"y", &b.Y},   {"z", &b.Z}, {"vx", &b.VX},
    {"vy", &b.VY}, {"vz", &b.VZ}, {"m", &b.M}, {"id", &b.Id}};
  for (const auto &[name, v] : cols)
  {
    svtkAOSDoubleArray *a = svtkAOSDoubleArray::New(name);
    a->GetVector() = *v;
    t->AddColumn(a);
    a->Delete();
  }
  return t;
}

const std::vector<double> &Column(svtkTable *t, const char *name)
{
  return dynamic_cast<svtkAOSDoubleArray *>(t->GetColumnByName(name))->GetVector();
}

unsigned TableSeed(unsigned seed, int sender, int variant)
{
  return seed * 7919u + static_cast<unsigned>(sender) * 104729u +
         static_cast<unsigned>(variant) * 15485863u + 1u;
}

/// x-y reference over the union of tables (count + mass sum).
RefGrid UnionReference(const std::vector<svtkTable *> &tables, long res)
{
  RefGrid g;
  g.Lo[0] = g.Lo[1] = 1e300;
  g.Hi[0] = g.Hi[1] = -1e300;
  for (svtkTable *t : tables)
    for (int a = 0; a < 2; ++a)
    {
      const std::vector<double> &c = Column(t, a ? "y" : "x");
      double lo = 0, hi = 0;
      RefRange(c.data(), c.size(), lo, hi);
      g.Lo[a] = std::min(g.Lo[a], lo);
      g.Hi[a] = std::max(g.Hi[a], hi);
    }
  for (svtkTable *t : tables)
    RefAccumulate(g, res, Column(t, "x").data(), Column(t, "y").data(),
                  {Column(t, "m").data()}, t->GetNumberOfRows());
  return g;
}

/// Forwards every call to an inner chain and times Execute, so the
/// endpoint's time splits into analysis and everything before it
/// (receive, decode, assembly, idle).
class Forwarder : public sensei::AnalysisAdaptor
{
public:
  static Forwarder *New() { return new Forwarder; }
  const char *GetClassName() const override { return "pb::Forwarder"; }

  sensei::ConfigurableAnalysis *Inner = nullptr;
  std::function<void(sensei::DataAdaptor *, double tIn, double tOut)> Done;

  bool Execute(sensei::DataAdaptor *data) override
  {
    const long step = data->GetDataTimeStep();
    const double tIn = Now();
    bool ok = false;
    {
      Span sp("core.endpoint_execute", step);
      ok = this->Inner->Execute(data);
    }
    this->Done(data, tIn, Now());
    return ok;
  }

  void DrainAsync() override { this->Inner->DrainAsync(); }

  int Finalize() override
  {
    Span sp("core.finalize", -1);
    return this->Inner->Finalize();
  }

protected:
  Forwarder() = default;
  ~Forwarder() override = default;
};

/// Compare the chain's binning result with a reference grid.
std::string CheckResult(sensei::ConfigurableAnalysis *chain, const RefGrid &ref)
{
  auto *b = dynamic_cast<sensei::DataBinning *>(chain->GetAnalysis(0));
  svtkImageData *img = b ? b->GetLastResult() : nullptr;
  if (!img)
    return "binning has no result";
  const std::vector<std::string> names{"count", "m_sum"};
  std::vector<const std::vector<double> *> got;
  for (const std::string &n : names)
  {
    auto *a =
      dynamic_cast<svtkAOSDoubleArray *>(img->GetPointData()->GetArray(n));
    got.push_back(a ? &a->GetVector() : nullptr);
  }
  const std::string err = CompareGrid(ref, got, names);
  img->UnRegister();
  return err;
}

} // namespace

// ---------------------------------------------------------------------------
Episode RunIntransitStream(const Options &opt, std::string &xml)
{
  constexpr std::size_t Rows = 131072; // per sender per step
  constexpr long Res = 256;
  constexpr long Window = 1; ///< steps a sender may run ahead of analysis
  xml = R"(<sensei>
  <analysis type="data_binning" mesh="bodies" axes="x,y" resolution="256,256"
            ops="sum" values="m" device="auto" async="0"/>
</sensei>)";

  Episode ep;
  const double tStart = Now();
  vp::PlatformConfig plat;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 64;
  vp::Platform::Initialize(plat);

  // inputs: each sender cycles through Variants generated tables
  std::vector<std::vector<svtkTable *>> tables(2);
  for (int s = 0; s < 2; ++s)
    for (int v = 0; v < Variants; ++v)
      tables[static_cast<std::size_t>(s)].push_back(
        MakeTable(Rows, TableSeed(opt.Seed, s, v)));
  const double refT0 = Now();
  std::vector<RefGrid> refs;
  for (int v = 0; v < Variants; ++v)
    refs.push_back(UnionReference({tables[0][static_cast<std::size_t>(v)],
                                   tables[1][static_cast<std::size_t>(v)]},
                                  Res));
  const double benchPrep = Now() - refT0;

  const bool trace = opt.Trace;
  std::mutex mu;
  std::condition_variable cv;
  long completed = -1;  ///< last step analyzed (guarded by mu)
  long stopAt = -1;     ///< first step no sender sends (guarded by mu)
  std::vector<std::vector<double>> sendStart(2), sendTime(2);
  std::vector<double> done; ///< completion time per step
  std::atomic<double> lastClose{0.0};
  double setupEnd = 0, cpu0 = 0, cpu1 = 0, prevOut = 0, tRunEnd = 0;
  long processed = 0, frameErrors = 0, deadSenders = 0;
  Counters c0;

  minimpi::Run(
    3,
    [&](minimpi::Communicator &world)
    {
      const sensei::InTransitLayout layout(3, 1);
      const bool isEndpoint = layout.IsEndpoint(world.Rank());
      minimpi::Communicator group = world.Split(isEndpoint ? 1 : 0);

      if (!isEndpoint)
      {
        const int me = world.Rank();
        Tracer::Get().NameThread("sender " + std::to_string(me));
        sensei::InTransitSender sender(&world, layout, "bodies");
        cmp::Params p;
        p.Codec = cmp::CodecId::ShuffleRLE;
        sender.SetCompression(p);
        sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
        for (long s = 0;; ++s)
        {
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&]
                    { return completed >= s - Window - 1 || stopAt >= 0; });
            if (stopAt >= 0 && s >= stopAt)
              break;
          }
          da->SetTable(tables[static_cast<std::size_t>(me)]
                             [static_cast<std::size_t>(s % Variants)]);
          da->SetDataTimeStep(s);
          const double t0 = Now();
          {
            Span sp("comm.send", s);
            sender.Send(da);
          }
          const double t1 = Now();
          sendStart[static_cast<std::size_t>(me)].push_back(t0);
          sendTime[static_cast<std::size_t>(me)].push_back(t1 - t0);
        }
        // close with exactly the last step still in flight, so the drain
        // always holds one step of endpoint work
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return completed >= stopAt - 2; });
        }
        da->Delete();
        sender.Close();
        double prev = lastClose.load();
        const double now = Now();
        while (prev < now && !lastClose.compare_exchange_weak(prev, now))
        {
        }
        return;
      }

      Tracer::Get().NameThread("endpoint");
      sensei::ConfigurableAnalysis *chain = sensei::ConfigurableAnalysis::New();
      chain->InitializeString(xml);
      Forwarder *fwd = Forwarder::New();
      fwd->Inner = chain;
      fwd->Done = [&](sensei::DataAdaptor *data, double tIn, double tOut)
      {
        const long s = data->GetDataTimeStep();
        done.push_back(tOut);
        if (s == WarmupSteps - 1)
        {
          setupEnd = tOut;
          cpu0 = ProcessCpu();
          if (trace)
            c0 = Counters::Read();
        }
        else if (s >= WarmupSteps)
        {
          ep.StepWall.push_back(tOut - done[done.size() - 2]);
          ++ep.TimedSteps;
          if (trace)
          {
            Tracer::Get().Add("step", done[done.size() - 2], tOut, s);
            Tracer::Get().Add("core.endpoint_wait", prevOut, tIn, s);
          }
        }

        // the grid must equal the reference of the union of both tables
        {
          Span sp("bench.check", s);
          const std::string err =
            CheckResult(chain, refs[static_cast<std::size_t>(s % Variants)]);
          ++ep.Attempted;
          if (!err.empty())
            ep.Fail("step " + std::to_string(s) + ": " + err);
        }
        prevOut = Now();

        std::lock_guard<std::mutex> lock(mu);
        completed = s;
        if (s >= WarmupSteps && stopAt < 0 && tOut - setupEnd >= opt.Seconds)
        {
          stopAt = s + Window + 2;
          cpu1 = ProcessCpu();
          if (trace)
            ep.Delta = Counters::Read() - c0;
        }
        cv.notify_all();
      };

      sensei::InTransitEndpoint endpoint(&world, &group, layout, "bodies");
      processed = endpoint.Run(fwd);
      tRunEnd = Now();
      frameErrors = endpoint.FrameErrors();
      deadSenders = endpoint.DeadSenders();
      fwd->UnRegister();
      chain->UnRegister();
    });

  ep.SetupSeconds = setupEnd - tStart - benchPrep;
  ep.DrainSeconds = tRunEnd - lastClose.load();
  ep.CpuSeconds = cpu1 - cpu0;
  // only steps completed before the stop decision count as timed
  const std::size_t timed =
    std::min<std::size_t>(ep.StepWall.size(),
                          static_cast<std::size_t>(stopAt - Window - 2 -
                                                   WarmupSteps + 1));
  ep.StepWall.resize(timed);
  ep.TimedSteps = static_cast<long>(timed);
  for (int me = 0; me < 2; ++me)
    for (std::size_t s = WarmupSteps; s < WarmupSteps + timed; ++s)
      ep.StepLatency.push_back(done[s] -
                               sendStart[static_cast<std::size_t>(me)][s]);

  const long sent = static_cast<long>(sendStart[0].size());
  if (sendStart[1].size() != sendStart[0].size() || processed != sent)
    for (long i = processed; i < std::max<long>(sent, processed + 1); ++i)
      ep.Fail("steps sent " + std::to_string(sent) + " but processed " +
              std::to_string(processed));
  if (frameErrors || deadSenders)
    ep.Fail("endpoint frame errors " + std::to_string(frameErrors) +
            ", dead senders " + std::to_string(deadSenders));

  if (trace)
  {
    for (int me = 0; me < 2; ++me)
      for (std::size_t s = WarmupSteps; s < WarmupSteps + timed; ++s)
        ep.Layer["comm.send_s"].push_back(
          sendTime[static_cast<std::size_t>(me)][s]);
  }
  for (auto &per : tables)
    for (svtkTable *t : per)
      t->Delete();
  return ep;
}

// ---------------------------------------------------------------------------
Episode RunSvcRender(const Options &opt, std::string &xml)
{
  constexpr std::size_t Rows = 65536; // per tenant per frame
  constexpr long CheckEvery = 25;     ///< binning output frequency (steps)
  constexpr double ErrorBound = 0.001; ///< the <compress> error_bound below
  const std::string vtiDir = opt.OutDir + "/svc_vti";
  std::filesystem::remove_all(vtiDir);
  std::filesystem::create_directories(vtiDir);

  // the service of configs/service_intransit.xml with one worker and the
  // x-y binning + render chain
  xml = R"(<sensei>
  <service max_sessions="8" workers="1" queue_depth="4" backpressure="block"
           policy="least-loaded" heartbeat_ms="50" missed_heartbeats="5"/>
  <compress codec="quantize" error_bound="0.001"/>
  <analysis type="data_binning" mesh="bodies" axes="x,y" resolution="256,256"
            ops="sum" values="m" device="auto" async="0"
            out_dir=")" + vtiDir + R"(" out_prefix="svc" out_freq=")" +
        std::to_string(CheckEvery) + R"("/>
  <analysis type="render" mesh="bodies" axes="x,y" resolution="256"
            variable="m" op="sum" device="auto"/>
</sensei>)";

  Episode ep;
  const double tStart = Now();
  vp::PlatformConfig plat;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 64;
  vp::Platform::Initialize(plat);
  const svc::ServiceStats st0 = svc::Stats();

  std::unique_ptr<sensei::ServiceHost> host =
    sensei::ServiceHost::FromString(xml);
  host->Start();

  const bool trace = opt.Trace;
  constexpr int Tenants = 2;
  std::atomic<bool> stop{false};
  std::atomic<double> lastClose{0.0};
  std::atomic<int> closed{0};
  std::vector<std::vector<double>> sendTime(Tenants);
  std::vector<std::vector<double>> mass(Tenants,
                                        std::vector<double>(Variants, 0.0));
  std::vector<std::vector<double>> rows(Tenants,
                                        std::vector<double>(Variants, 0.0));
  std::vector<long> sent(Tenants, 0);
  std::vector<std::string> errors(Tenants);

  std::vector<std::thread> tenants;
  for (int t = 0; t < Tenants; ++t)
    tenants.emplace_back(
      [&, t]
      {
        Tracer::Get().NameThread("tenant " + std::to_string(t));
        std::vector<svtkTable *> mine;
        for (int v = 0; v < Variants; ++v)
        {
          mine.push_back(MakeTable(Rows, TableSeed(opt.Seed, t, v)));
          rows[static_cast<std::size_t>(t)][static_cast<std::size_t>(v)] =
            static_cast<double>(mine.back()->GetNumberOfRows());
          for (double m : Column(mine.back(), "m"))
            mass[static_cast<std::size_t>(t)][static_cast<std::size_t>(v)] += m;
        }
        sensei::ServiceClient client(host->Connect(), "bodies");
        if (!client.Connect(5.0))
          errors[static_cast<std::size_t>(t)] = "tenant failed to connect";
        sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
        double prevEnd = Now();
        for (long s = 0; errors[static_cast<std::size_t>(t)].empty() &&
                         (s < WarmupSteps || !stop.load());
             ++s)
        {
          da->SetTable(mine[static_cast<std::size_t>(s % Variants)]);
          // distinct step ids per tenant: 2s + t
          da->SetDataTimeStep(2 * s + t);
          const double t0 = Now();
          bool ok = false;
          {
            Span sp("svc.send", s);
            ok = client.Send(da);
          }
          const double t1 = Now();
          if (!ok)
            errors[static_cast<std::size_t>(t)] =
              "send failed at step " + std::to_string(s);
          sendTime[static_cast<std::size_t>(t)].push_back(t1 - t0);
          if (trace)
            Tracer::Get().Add("step", prevEnd, t1, s);
          prevEnd = t1;
          ++sent[static_cast<std::size_t>(t)];
        }
        da->Delete();
        client.Close();
        double prev = lastClose.load();
        const double now = Now();
        while (prev < now && !lastClose.compare_exchange_weak(prev, now))
        {
        }
        ++closed;
        for (svtkTable *tb : mine)
          tb->Delete();
      });

  // observe completions: the worker runs inside the service, so the
  // benchmark samples its executed-frame count
  const long warmFrames = WarmupSteps * Tenants;
  std::vector<double> done;
  double setupEnd = 0, cpu0 = 0, cpu1 = 0;
  std::size_t doneAtStop = 0;
  Counters c0;
  long seen = 0;
  while (true)
  {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const long n = host->FramesExecuted();
    const double now = Now();
    for (; seen < n; ++seen)
      done.push_back(now);
    if (!setupEnd && n >= warmFrames)
    {
      setupEnd = done[static_cast<std::size_t>(warmFrames - 1)];
      cpu0 = ProcessCpu();
      if (trace)
        c0 = Counters::Read();
    }
    if (setupEnd && !stop.load() && now - setupEnd >= opt.Seconds)
    {
      doneAtStop = done.size();
      cpu1 = ProcessCpu();
      if (trace)
        ep.Delta = Counters::Read() - c0;
      stop = true;
    }
    if (closed.load() == Tenants)
      break; // stopped, or every tenant gave up on an error
  }
  for (std::thread &th : tenants)
    th.join();
  {
    // graceful shutdown: Stop() hands the session queues to the workers
    // but not frames still in a tenant's ring, so first let every
    // session read its Goodbye and drain
    Span sp("svc.stop", -1);
    const double deadline = Now() + 10.0;
    while (host->GetServer().ActiveSessions() > 0 && Now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    host->Stop();
  }
  const double tStopped = Now();
  const std::vector<double> lat = host->GetServer().Latencies();
  const long executed = host->FramesExecuted();
  host.reset();

  ep.SetupSeconds = setupEnd - tStart;
  ep.DrainSeconds = tStopped - lastClose.load();
  ep.CpuSeconds = cpu1 - cpu0;
  for (std::size_t k = static_cast<std::size_t>(warmFrames); k < doneAtStop; ++k)
    ep.StepWall.push_back(done[k] - done[k - 1]);
  ep.TimedSteps = static_cast<long>(ep.StepWall.size());
  for (std::size_t k = static_cast<std::size_t>(warmFrames);
       k < doneAtStop && k < lat.size(); ++k)
    ep.StepLatency.push_back(lat[k]);

  // correctness: every frame executed, none dropped, and each written
  // grid totals its table's bodies and mass within the quantize bound
  const long total = sent[0] + sent[1];
  ep.Attempted = total;
  for (const std::string &e : errors)
    if (!e.empty())
      ep.Fail(e);
  for (long i = executed; i < total; ++i)
    ep.Fail("frames executed " + std::to_string(executed) + " of " +
            std::to_string(total));
  const svc::ServiceStats st1 = svc::Stats();
  if (st1.FramesDropped != st0.FramesDropped ||
      st1.FramesRejected != st0.FramesRejected)
    ep.Fail("service dropped or rejected frames under block backpressure");
  long checked = 0;
  for (int t = 0; t < Tenants; ++t)
    for (long s = 0; s < sent[static_cast<std::size_t>(t)]; ++s)
    {
      const long id = 2 * s + t;
      if (id % CheckEvery)
        continue;
      const std::string path = vtiDir + "/svc_" + std::to_string(id) + ".vti";
      if (!std::filesystem::exists(path))
      {
        ep.Fail("missing binning output " + path);
        continue;
      }
      svtkImageData *img = sio::ReadVTI(path);
      if (!img)
      {
        ep.Fail("unreadable binning output " + path);
        continue;
      }
      double n = 0, m = 0;
      for (std::size_t i = 0; i < img->GetNumberOfPoints(); ++i)
      {
        n += img->GetPointData()->GetArray("count")->GetVariantValue(i, 0);
        m += img->GetPointData()->GetArray("m_sum")->GetVariantValue(i, 0);
      }
      img->UnRegister();
      const std::size_t ti = static_cast<std::size_t>(t);
      const std::size_t v = static_cast<std::size_t>(s % Variants);
      ++checked;
      // quantized coordinates may move a body to a neighbouring bin, so
      // the grid is checked by its totals: every body binned, and the
      // mass within the codec's absolute error bound per value
      if (n != rows[ti][v] ||
          std::fabs(m - mass[ti][v]) > rows[ti][v] * ErrorBound)
        ep.Fail("frame " + std::to_string(id) + ": count " +
                std::to_string(n) + ", mass " + std::to_string(m) +
                " vs " + std::to_string(mass[ti][v]));
    }
  if (!checked)
    ep.Fail("no binning output was checked");
  std::filesystem::remove_all(vtiDir);

  if (trace)
  {
    for (const std::vector<double> &v : sendTime)
      for (std::size_t s = WarmupSteps; s < v.size(); ++s)
        ep.Layer["svc.send_s"].push_back(v[s]);
    // the worker's frames, drawn from their completion and latency
    for (std::size_t k = 0; k < done.size() && k < lat.size(); ++k)
      Tracer::Get().AddObserved("service worker (observed)", "svc.frame",
                                done[k] - lat[k], done[k],
                                static_cast<long>(k));
  }
  return ep;
}

} // namespace pb
