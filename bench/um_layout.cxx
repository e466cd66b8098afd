// Microbenchmark for the kernels that run over SoA columns: the nbody
// force kernel (newton::Force, vectorized across targets on AVX2 hosts)
// vs its scalar reference loop, and the codec's cache-blocked
// byte-plane transpose vs the seed's per-plane strided gather — both on
// REAL wall-clock, since vectorization changes host work, not
// virtual-time accounting. Writes BENCH_layout.json into the working
// directory (scripts/run_campaign.sh collects it under results/).
//
// Exit-code gates:
//   - newton::Force must beat newton::ForceReference on the same bodies
//     by >= 1.5x wall clock (enforced only with >= 4 hardware threads —
//     gains are swamped by timer noise on small boxes; recorded and
//     skipped there; exit 3). On a host without AVX2 both run the
//     scalar loop and the gate fails, as it should.
//   - the blocked byte-plane transpose must beat the strided per-plane
//     gather by >= 1.2x wall clock (same >= 4-thread guard; exit 3).
//   - a direct binning pipeline must produce bit-exact grids across
//     serial/threads x eager/graph-replay x aos/soa/aosoa (always
//     enforced; exit 4).
//   - under VP_CHECK=1 any checker violation exits 2.

#include "execEngine.h"
#include "graphCapture.h"
#include "layoutMapping.h"
#include "newtonForce.h"
#include "newtonInitialConditions.h"
#include "senseiDataAdaptor.h"
#include "senseiDataBinning.h"
#include "senseiProfiler.h"
#include "svtkAOSDataArray.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace
{

void Reset()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vomp::SetDefaultDevice(0);
  vp::check::Reset();
  vp::ThisClock().Set(0.0);
}

double Now()
{
  return std::chrono::duration<double>(
           std::chrono::steady_clock::now().time_since_epoch())
    .count();
}

// ---- nbody force: Force vs the scalar ForceReference loop -----------------

/// The self block of a `bodies`-body initial condition: the force sum
/// one serial solver step takes.
struct ForceBodies
{
  newton::BodySet Bodies;
  std::vector<double> AX, AY, AZ;
  newton::ForceArgs Args;

  explicit ForceBodies(std::size_t bodies)
  {
    newton::Config c;
    c.TotalBodies = bodies;
    c.Seed = 42;
    c.Repartition = false;
    this->Bodies = newton::GenerateInitialCondition(c, 0, 1);
    const std::size_t n = this->Bodies.Size();
    this->AX.assign(n, 0.0);
    this->AY.assign(n, 0.0);
    this->AZ.assign(n, 0.0);
    newton::ForceArgs &f = this->Args;
    f.X = f.SX = this->Bodies.X.data();
    f.Y = f.SY = this->Bodies.Y.data();
    f.Z = f.SZ = this->Bodies.Z.data();
    f.SM = this->Bodies.M.data();
    f.AX = this->AX.data();
    f.AY = this->AY.data();
    f.AZ = this->AZ.data();
    f.NSrc = n;
    f.Self = true;
    f.G = c.G;
    f.Eps2 = c.Softening * c.Softening;
  }

  void Run(bool fast)
  {
    const std::size_t n = this->Args.NSrc;
    if (fast)
      newton::Force(this->Args, 0, n);
    else
      newton::ForceReference(this->Args, 0, n);
    benchmark::DoNotOptimize(this->AX.data());
    benchmark::ClobberMemory();
  }
};

/// Wall seconds for `rounds` full force sums over the same bodies.
double TimeForce(bool fast, ForceBodies &fb, int rounds)
{
  fb.Run(fast); // warm the caches
  const double t0 = Now();
  for (int r = 0; r < rounds; ++r)
    fb.Run(fast);
  return Now() - t0;
}

// ---- codec shuffle: strided per-plane gather vs blocked transpose ----------

/// The seed's shuffle: one strided pass over the whole array per byte
/// plane (esize cache-hostile walks).
void NaiveGather(const std::uint8_t *src, std::size_t esize, std::size_t n,
                 std::uint8_t *dst)
{
  for (std::size_t b = 0; b < esize; ++b)
  {
    const std::uint8_t *__restrict s = src + b;
    std::uint8_t *__restrict d = dst + b * n;
    for (std::size_t i = 0; i < n; ++i)
      d[i] = s[i * esize];
  }
}

double TimeShuffle(bool blocked, std::size_t esize, std::size_t n,
                   int rounds, const std::vector<std::uint8_t> &src,
                   std::vector<std::uint8_t> &dst)
{
  const double t0 = Now();
  for (int r = 0; r < rounds; ++r)
  {
    if (blocked)
      vp::layout::GatherPlanes(src.data(), esize, n, dst.data());
    else
      NaiveGather(src.data(), esize, n, dst.data());
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  return Now() - t0;
}

// ---- the bit-exactness matrix ----------------------------------------------

svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> xs(n), ys(n), vs(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    xs[i] = u(gen);
    ys[i] = u(gen);
    // integer valued: sums stay exact under any accumulation order
    vs[i] = std::floor(8.0 * (xs[i] + 2.0 * ys[i]));
  }
  svtkTable *t = svtkTable::New();
  auto add = [t](const char *name, const std::vector<double> &v)
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, v.size(), 1);
    c->GetVector() = v;
    t->AddColumn(c);
    c->Delete();
  };
  add("x", xs);
  add("y", ys);
  add("v", vs);
  return t;
}

std::vector<double> GridValues(svtkImageData *img, const char *name)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  std::vector<double> out(a ? a->GetNumberOfTuples() : 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->GetVariantValue(i, 0);
  return out;
}

/// Four direct binning steps on device 0 under the given execution
/// mode, graph setting, and layout hint; returns every grid.
std::vector<std::vector<double>> RunBinning(bool threads, bool graphOn,
                                            vp::layout::Kind layout)
{
  Reset();
  vp::exec::ExecConfig ec;
  ec.ExecMode = threads ? vp::exec::Mode::Threads : vp::exec::Mode::Serial;
  ec.Threads = threads ? 2 : 0;
  vp::exec::Configure(ec);
  vp::graph::GraphConfig gc;
  gc.Enabled = graphOn;
  vp::graph::Configure(gc);

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  sensei::DataBinning *b = sensei::DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({32});
  b->SetRange(0, -1.0, 1.0);
  b->SetRange(1, -1.0, 1.0);
  b->AddOperation("v", sensei::BinningOp::Sum);
  b->AddOperation("v", sensei::BinningOp::Min);
  b->AddOperation("v", sensei::BinningOp::Max);
  b->SetDeviceId(0);
  if (layout != vp::layout::Kind::AoS)
    b->SetArrayLayout(layout, 16);

  std::vector<std::vector<double>> out;
  for (int s = 0; s < 4; ++s)
  {
    svtkTable *t = MakeTable(5000, 90u + static_cast<unsigned>(s));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    b->Execute(da);
    svtkImageData *img = b->GetLastResult();
    if (img)
    {
      out.push_back(GridValues(img, "count"));
      out.push_back(GridValues(img, "v_sum"));
      out.push_back(GridValues(img, "v_min"));
      out.push_back(GridValues(img, "v_max"));
      img->UnRegister();
    }
  }
  b->Finalize();
  b->Delete();
  da->ReleaseData();
  da->Delete();
  vp::exec::Configure(vp::exec::ExecConfig());
  vp::graph::Configure(vp::graph::GraphConfig());
  return out;
}

const char *GateName(bool ok) { return ok ? "passed" : "FAILED"; }

void WriteJson(unsigned hw, double scalarWall, double forceWall,
               double forceRatio, double naiveWall, double blockedWall,
               double shuffleRatio, bool gatesEnforced, bool forceOk,
               bool shuffleOk, bool exact, const char *path)
{
  const vp::layout::LayoutStats s = vp::layout::Stats();
  std::ofstream os(path);
  os.precision(12);
  os << "{\n"
     << "  \"bench\": \"um_layout\",\n"
     << "  \"hardware_threads\": " << hw << ",\n"
     << "  \"force_isa\": \"" << newton::ForceIsa() << "\",\n"
     << "  \"nbody_force\": {\n"
     << "    \"reference_wall_seconds\": " << scalarWall << ",\n"
     << "    \"force_wall_seconds\": " << forceWall << ",\n"
     << "    \"speedup\": " << forceRatio << "\n  },\n"
     << "  \"codec_shuffle\": {\n"
     << "    \"strided_wall_seconds\": " << naiveWall << ",\n"
     << "    \"blocked_wall_seconds\": " << blockedWall << ",\n"
     << "    \"speedup\": " << shuffleRatio << "\n  },\n"
     << "  \"layout_stats\": {\n"
     << "    \"conversions\": " << s.Conversions << ",\n"
     << "    \"bytes_reordered\": " << s.BytesReordered << ",\n"
     << "    \"simd_kernels\": " << s.SimdKernels << ",\n"
     << "    \"scalar_kernels\": " << s.ScalarKernels << ",\n"
     << "    \"runs_iterated\": " << s.RunsIterated << ",\n"
     << "    \"plane_transposes\": " << s.PlaneTransposes << ",\n"
     << "    \"plane_bytes\": " << s.PlaneBytes << "\n  },\n"
     << "  \"gates\": {\n"
     << "    \"force_speedup_1p5x\": \""
     << (gatesEnforced ? GateName(forceOk) : "skipped (insufficient cores)")
     << "\",\n"
     << "    \"shuffle_speedup_1p2x\": \""
     << (gatesEnforced ? GateName(shuffleOk)
                       : "skipped (insufficient cores)")
     << "\",\n"
     << "    \"matrix_bit_exact\": \"" << GateName(exact) << "\"\n  },\n"
     << "  \"profiler\": " << sensei::Profiler::Global().ToJson() << "\n"
     << "}\n";
}

} // namespace

// One full force sum over 1024 bodies per iteration, reference vs Force.
static void BM_NbodyForce(benchmark::State &state)
{
  const bool fast = state.range(0) != 0;
  ForceBodies fb(1024);
  for (auto _ : state)
    fb.Run(fast);
  state.SetLabel(fast ? std::string("force ") + newton::ForceIsa()
                      : std::string("reference scalar loop"));
}
BENCHMARK(BM_NbodyForce)->Arg(0)->Arg(1)->UseRealTime();

// One full byte-plane shuffle of a 32 MiB double array per iteration.
static void BM_PlaneShuffle(benchmark::State &state)
{
  const bool blocked = state.range(0) != 0;
  const std::size_t esize = 8, n = 1 << 22;
  std::vector<std::uint8_t> src(esize * n), dst(esize * n);
  std::mt19937_64 rng(3);
  for (auto &b : src)
    b = static_cast<std::uint8_t>(rng());
  for (auto _ : state)
  {
    if (blocked)
      vp::layout::GatherPlanes(src.data(), esize, n, dst.data());
    else
      NaiveGather(src.data(), esize, n, dst.data());
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(blocked ? "blocked transpose" : "strided gather (seed)");
}
BENCHMARK(BM_PlaneShuffle)->Arg(0)->Arg(1)->UseRealTime();

int main(int argc, char **argv)
{
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  sensei::Profiler::Global().Clear();
  vp::layout::ResetStats();

  // the bit-exactness matrix first: every layout and execution mode must
  // reproduce the serial eager AoS grids exactly
  const std::vector<std::vector<double>> baseline =
    RunBinning(false, false, vp::layout::Kind::AoS);
  bool exact = !baseline.empty();
  for (bool threads : {false, true})
    for (bool graphOn : {false, true})
      for (vp::layout::Kind k : {vp::layout::Kind::AoS,
                                 vp::layout::Kind::SoA,
                                 vp::layout::Kind::AoSoA})
      {
        if (!threads && !graphOn && k == vp::layout::Kind::AoS)
          continue;
        if (RunBinning(threads, graphOn, k) != baseline)
        {
          std::fprintf(stderr,
                       "um_layout: binning diverged (threads=%d graph=%d "
                       "layout=%s)\n",
                       threads ? 1 : 0, graphOn ? 1 : 0,
                       vp::layout::KindName(k));
          exact = false;
        }
      }

  // wall-clock probes: best of 3 trials each to shed scheduler noise
  ForceBodies fb(1024);
  const int forceRounds = 10;
  double scalarWall = 1e30, forceWall = 1e30;
  for (int t = 0; t < 3; ++t)
  {
    scalarWall = std::min(scalarWall, TimeForce(false, fb, forceRounds));
    forceWall = std::min(forceWall, TimeForce(true, fb, forceRounds));
  }

  const std::size_t esize = 8, n = 1 << 22;
  const int rounds = 8;
  std::vector<std::uint8_t> src(esize * n), dst(esize * n);
  std::mt19937_64 rng(3);
  for (auto &b : src)
    b = static_cast<std::uint8_t>(rng());
  double naiveWall = 1e30, blockedWall = 1e30;
  for (int t = 0; t < 3; ++t)
  {
    naiveWall = std::min(naiveWall,
                         TimeShuffle(false, esize, n, rounds, src, dst));
    blockedWall = std::min(blockedWall,
                           TimeShuffle(true, esize, n, rounds, src, dst));
  }

  const double forceRatio = forceWall > 0.0 ? scalarWall / forceWall : 0.0;
  const double shuffleRatio =
    blockedWall > 0.0 ? naiveWall / blockedWall : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();
  const bool gatesEnforced = hw >= 4;
  const bool forceOk = forceRatio >= 1.5;
  const bool shuffleOk = shuffleRatio >= 1.2;

  sensei::ExportLayoutStats(sensei::Profiler::Global());
  sensei::ExportExecStats(sensei::Profiler::Global());

  // under VP_CHECK the matrix runs double as a race/lifetime gate
  if (vp::check::Enabled())
  {
    const vp::check::Report report = vp::check::Finalize();
    sensei::ExportCheckReport(sensei::Profiler::Global(), report);
    if (report.Total())
    {
      std::fprintf(stderr, "um_layout: VP_CHECK failed\n%s",
                   report.Summary().c_str());
      return 2;
    }
    std::printf("VP_CHECK: 0 violations across the layout matrix\n");
  }

  WriteJson(hw, scalarWall, forceWall, forceRatio, naiveWall, blockedWall,
            shuffleRatio, gatesEnforced, forceOk, shuffleOk, exact,
            "BENCH_layout.json");

  std::printf("nbody force:   reference %.3f s, %s %.3f s (%.2fx)\n",
              scalarWall, newton::ForceIsa(), forceWall, forceRatio);
  std::printf("codec shuffle: strided %.3f s, blocked %.3f s (%.2fx)\n",
              naiveWall, blockedWall, shuffleRatio);

  if (!exact)
  {
    std::fprintf(stderr, "um_layout: the layout/exec/graph matrix "
                         "diverged from the serial AoS grids\n");
    return 4;
  }
  std::printf("binning grids bit-exact across serial/threads x "
              "eager/replay x aos/soa/aosoa\n");

  if (!gatesEnforced)
  {
    std::printf("speedup gates skipped (insufficient cores: %u hardware "
                "threads)\n",
                hw);
    return 0;
  }
  if (!forceOk)
  {
    std::fprintf(stderr,
                 "um_layout: force speedup %.2fx over the reference loop "
                 "below the 1.5x gate\n",
                 forceRatio);
    return 3;
  }
  if (!shuffleOk)
  {
    std::fprintf(stderr,
                 "um_layout: blocked shuffle speedup %.2fx below the 1.2x "
                 "gate\n",
                 shuffleRatio);
    return 3;
  }
  std::printf("BENCH_layout.json: force %.2fx (gate 1.5x), shuffle %.2fx "
              "(gate 1.2x)\n",
              forceRatio, shuffleRatio);
  return 0;
}
