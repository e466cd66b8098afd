#include "bench.h"

#include "cmpCodec.h"
#include "execEngine.h"
#include "graphCapture.h"
#include "schedPipeline.h"
#include "svcSession.h"
#include "vizConfig.h"
#include "vpMemoryPool.h"
#include "vpPlatform.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <limits>
#include <sstream>

namespace pb
{

double Now()
{
  return std::chrono::duration<double>(
           std::chrono::steady_clock::now().time_since_epoch())
    .count();
}

namespace
{
double CpuClock(clockid_t id)
{
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
} // namespace

double ProcessCpu() { return CpuClock(CLOCK_PROCESS_CPUTIME_ID); }

// ---------------------------------------------------------------------------
Counters Counters::Read()
{
  Counters c;
  const vp::PlatformStats &ps = vp::Platform::Get().Stats();
  c.Kernels = static_cast<double>(ps.KernelsLaunched.load());
  for (int k = 0; k < 5; ++k)
    c.CopyBytes[k] = static_cast<double>(ps.CopyBytes[k].load());

  const vp::exec::EngineStats es = vp::exec::Stats();
  c.TasksEnqueued = static_cast<double>(es.TasksEnqueued);
  c.TasksInline = static_cast<double>(es.TasksInline);
  c.FenceJoins = static_cast<double>(es.FenceJoins);

  const vp::graph::GraphStats gs = vp::graph::Stats();
  c.GraphReplays = static_cast<double>(gs.Replays);
  c.GraphOpsAbsorbed = static_cast<double>(gs.OpsAbsorbed);
  c.GraphInvalidations = static_cast<double>(gs.Invalidations);

  const sched::PipelineStats ss = sched::AggregateStats();
  c.SchedSubmitted = static_cast<double>(ss.Submitted);
  c.SchedDropped = static_cast<double>(ss.Dropped);
  c.SchedQueueHighWater = static_cast<double>(ss.QueueDepthHighWater);

  const vp::PoolStats pl = vp::PoolManager::Get().AggregateStats();
  c.PoolHits = static_cast<double>(pl.Hits);
  c.PoolMisses = static_cast<double>(pl.Misses);
  c.PoolPeakInUse = static_cast<double>(pl.PeakBytesInUse);

  const cmp::CodecStats cs = cmp::Stats();
  c.CmpRaw = static_cast<double>(cs.BytesRaw);
  c.CmpEncoded = static_cast<double>(cs.BytesEncoded);

  const svc::ServiceStats sv = svc::Stats();
  c.SvcBytesWire = static_cast<double>(sv.BytesWire);
  c.SvcQueueHighWater = static_cast<double>(sv.QueueHighWater);
  c.SvcFramesDropped = static_cast<double>(sv.FramesDropped);

  c.VizFramesRendered = static_cast<double>(viz::Stats().FramesRendered);
  return c;
}

Counters &Counters::operator+=(const Counters &o)
{
  this->Kernels += o.Kernels;
  for (int k = 0; k < 5; ++k)
    this->CopyBytes[k] += o.CopyBytes[k];
  this->TasksEnqueued += o.TasksEnqueued;
  this->TasksInline += o.TasksInline;
  this->FenceJoins += o.FenceJoins;
  this->GraphReplays += o.GraphReplays;
  this->GraphOpsAbsorbed += o.GraphOpsAbsorbed;
  this->GraphInvalidations += o.GraphInvalidations;
  this->SchedSubmitted += o.SchedSubmitted;
  this->SchedDropped += o.SchedDropped;
  this->PoolHits += o.PoolHits;
  this->PoolMisses += o.PoolMisses;
  this->CmpRaw += o.CmpRaw;
  this->CmpEncoded += o.CmpEncoded;
  this->SvcBytesWire += o.SvcBytesWire;
  this->SvcFramesDropped += o.SvcFramesDropped;
  this->VizFramesRendered += o.VizFramesRendered;
  // high-water marks are levels, not flows: keep the larger one
  this->SchedQueueHighWater =
    std::max(this->SchedQueueHighWater, o.SchedQueueHighWater);
  this->PoolPeakInUse = std::max(this->PoolPeakInUse, o.PoolPeakInUse);
  this->SvcQueueHighWater =
    std::max(this->SvcQueueHighWater, o.SvcQueueHighWater);
  return *this;
}

Counters Counters::operator-(const Counters &o) const
{
  Counters d = *this;
  d.Kernels -= o.Kernels;
  for (int k = 0; k < 5; ++k)
    d.CopyBytes[k] -= o.CopyBytes[k];
  d.TasksEnqueued -= o.TasksEnqueued;
  d.TasksInline -= o.TasksInline;
  d.FenceJoins -= o.FenceJoins;
  d.GraphReplays -= o.GraphReplays;
  d.GraphOpsAbsorbed -= o.GraphOpsAbsorbed;
  d.GraphInvalidations -= o.GraphInvalidations;
  d.SchedSubmitted -= o.SchedSubmitted;
  d.SchedDropped -= o.SchedDropped;
  d.PoolHits -= o.PoolHits;
  d.PoolMisses -= o.PoolMisses;
  d.CmpRaw -= o.CmpRaw;
  d.CmpEncoded -= o.CmpEncoded;
  d.SvcBytesWire -= o.SvcBytesWire;
  d.SvcFramesDropped -= o.SvcFramesDropped;
  d.VizFramesRendered -= o.VizFramesRendered;
  // levels stay as read at the later instant
  return d;
}

// ---------------------------------------------------------------------------
Tracer &Tracer::Get()
{
  static Tracer t;
  return t;
}

Tracer::Track &Tracer::Mine()
{
  thread_local Track *mine = nullptr;
  thread_local const Tracer *owner = nullptr;
  if (!mine || owner != this)
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    this->Tracks_.push_back(std::make_unique<Track>());
    mine = this->Tracks_.back().get();
    mine->Name = "thread " + std::to_string(this->Tracks_.size());
    owner = this;
  }
  return *mine;
}

void Tracer::NameThread(const std::string &name)
{
  if (!this->On_)
    return;
  Track &t = this->Mine();
  std::lock_guard<std::mutex> lock(this->Mutex_);
  t.Name = name;
}

void Tracer::Add(const char *name, double t0, double t1, long step)
{
  // each thread appends to its own track; Tracks() runs after the joins
  this->Mine().Spans.push_back(SpanRec{name, t0, t1, step, this->Episode_});
}

void Tracer::AddObserved(const std::string &track, const char *name,
                         double t0, double t1, long step)
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  Track *&t = this->Observed_[track];
  if (!t)
  {
    this->Tracks_.push_back(std::make_unique<Track>());
    t = this->Tracks_.back().get();
    t->Name = track;
  }
  t->Spans.push_back(SpanRec{name, t0, t1, step, this->Episode_});
}

std::vector<Tracer::Track> Tracer::Tracks() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  std::vector<Track> out;
  for (const std::unique_ptr<Track> &t : this->Tracks_)
    if (!t->Spans.empty())
      out.push_back(*t);
  return out;
}

// ---------------------------------------------------------------------------
void RefRange(const double *a, std::size_t n, double &lo, double &hi)
{
  lo = std::numeric_limits<double>::infinity();
  hi = -lo;
  for (std::size_t i = 0; i < n; ++i)
  {
    lo = std::min(lo, a[i]);
    hi = std::max(hi, a[i]);
  }
}

void RefAccumulate(RefGrid &g, long res, const double *ax, const double *ay,
                   const std::vector<const double *> &values, std::size_t n)
{
  const std::size_t nb = static_cast<std::size_t>(res * res);
  if (g.Count.size() != nb)
  {
    g.Count.assign(nb, 0.0);
    g.Sum.assign(values.size(), std::vector<double>(nb, 0.0));
    g.AbsSum.assign(values.size(), std::vector<double>(nb, 0.0));
  }
  const double sx = static_cast<double>(res) / (g.Hi[0] - g.Lo[0]);
  const double sy = static_cast<double>(res) / (g.Hi[1] - g.Lo[1]);
  for (std::size_t i = 0; i < n; ++i)
  {
    const long bx =
      std::clamp(static_cast<long>((ax[i] - g.Lo[0]) * sx), 0L, res - 1);
    const long by =
      std::clamp(static_cast<long>((ay[i] - g.Lo[1]) * sy), 0L, res - 1);
    const std::size_t idx = static_cast<std::size_t>(bx + by * res);
    g.Count[idx] += 1.0;
    for (std::size_t k = 0; k < values.size(); ++k)
    {
      g.Sum[k][idx] += values[k][i];
      g.AbsSum[k][idx] += std::fabs(values[k][i]);
    }
  }
}

std::string CompareGrid(const RefGrid &ref,
                        const std::vector<const std::vector<double> *> &got,
                        const std::vector<std::string> &names)
{
  // got[0] is the count grid, got[1..] the sums in reference order
  if (got.size() != ref.Sum.size() + 1)
    return "result has " + std::to_string(got.size()) + " arrays, expected " +
           std::to_string(ref.Sum.size() + 1);
  for (std::size_t a = 0; a < got.size(); ++a)
  {
    if (!got[a] || got[a]->size() != ref.Count.size())
      return "array " + names[a] + " missing or wrongly sized";
    const std::vector<double> &g = *got[a];
    for (std::size_t i = 0; i < g.size(); ++i)
    {
      const double want = a ? ref.Sum[a - 1][i] : ref.Count[i];
      const double tol = a ? 1e-9 * ref.AbsSum[a - 1][i] : 0.0;
      if (!(std::fabs(g[i] - want) <= tol))
      {
        std::ostringstream os;
        os.precision(17);
        os << names[a] << "[" << i << "] = " << g[i] << ", reference "
           << want;
        return os.str();
      }
    }
  }
  return {};
}

} // namespace pb
