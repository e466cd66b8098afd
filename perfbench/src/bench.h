#ifndef perfbench_bench_h
#define perfbench_bench_h

// Shared pieces of the end-to-end benchmark: wall/CPU clocks, the
// per-episode result record, layer counter snapshots, the span tracer
// and the reference binning the correctness checks compare against.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pb
{

/// Seconds on the steady clock.
double Now();

/// CPU seconds of the whole process (all threads).
double ProcessCpu();

/// Platform, engine and subsystem counters at one instant. Every field is
/// read through a public Stats() accessor of its layer.
struct Counters
{
  double Kernels = 0;
  double CopyBytes[5] = {}; ///< indexed by vp::CopyKind
  double TasksEnqueued = 0, TasksInline = 0, FenceJoins = 0;
  double GraphReplays = 0, GraphOpsAbsorbed = 0, GraphInvalidations = 0;
  double SchedSubmitted = 0, SchedDropped = 0, SchedQueueHighWater = 0;
  double PoolHits = 0, PoolMisses = 0, PoolPeakInUse = 0;
  double CmpRaw = 0, CmpEncoded = 0;
  double SvcBytesWire = 0, SvcQueueHighWater = 0, SvcFramesDropped = 0;
  double VizFramesRendered = 0;

  static Counters Read();
  Counters &operator+=(const Counters &o);
  Counters operator-(const Counters &o) const;
};

/// One traced interval on one thread.
struct SpanRec
{
  const char *Name = "";
  double T0 = 0, T1 = 0;
  long Step = -1;
  int Episode = 0;
};

/// Collects spans in per-thread buffers; written out when the run ends.
/// With tracing off every call is a no-op.
class Tracer
{
public:
  static Tracer &Get();

  void Enable(bool on) { this->On_ = on; }
  bool On() const { return this->On_; }

  /// Episode stamped on the spans recorded from now on.
  void SetEpisode(int e) { this->Episode_ = e; }

  /// Name the calling thread's track (e.g. "rank 0", "sender 1").
  void NameThread(const std::string &name);

  void Add(const char *name, double t0, double t1, long step);

  /// A span drawn on a named track that no benchmark code runs on (the
  /// service worker, observed from its completion times).
  void AddObserved(const std::string &track, const char *name, double t0,
                   double t1, long step);

  struct Track
  {
    std::string Name;
    std::vector<SpanRec> Spans;
  };

  /// Every track recorded so far (call after all threads joined).
  std::vector<Track> Tracks() const;

private:
  Track &Mine();

  bool On_ = false;
  int Episode_ = 0;
  mutable std::mutex Mutex_;
  std::vector<std::unique_ptr<Track>> Tracks_; ///< stable addresses
  std::map<std::string, Track *> Observed_;
};

/// RAII span around one call into a layer.
class Span
{
public:
  Span(const char *name, long step)
    : Name_(name), Step_(step), T0_(Tracer::Get().On() ? Now() : 0.0)
  {
  }
  ~Span()
  {
    if (Tracer::Get().On())
      Tracer::Get().Add(this->Name_, this->T0_, Now(), this->Step_);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name_;
  long Step_;
  double T0_;
};

/// What one episode of a workload measured.
struct Episode
{
  double SetupSeconds = 0;
  double DrainSeconds = 0;
  std::vector<double> StepWall;    ///< critical-path seconds per timed step
  std::vector<double> StepLatency; ///< hand-off to analysis end, seconds
  double CpuSeconds = 0;           ///< process CPU over the timed steps
  long TimedSteps = 0;
  long Attempted = 0;
  long Failed = 0;
  std::vector<std::string> Failures; ///< first few failure messages

  std::map<std::string, double> Values; ///< scalars for the run record

  // traced run only
  Counters Delta; ///< layer counters over the timed steps
  std::map<std::string, std::vector<double>> Layer; ///< per-layer samples

  void Fail(const std::string &why)
  {
    ++this->Failed;
    if (this->Failures.size() < 8)
      this->Failures.push_back(why);
  }
};

/// Inputs shared by every workload.
struct Options
{
  std::string Workload;
  unsigned Seed = 1;
  double Seconds = 10; ///< timed seconds per episode
  bool Trace = false;
  std::string OutDir;  ///< where VTI outputs and result files go
};

using WorkloadFn = Episode (*)(const Options &, std::string &xml);

Episode RunInsituNbody(const Options &, std::string &xml);
Episode RunTable1Binning(const Options &, std::string &xml);
Episode RunIntransitStream(const Options &, std::string &xml);
Episode RunSvcRender(const Options &, std::string &xml);

/// Reference x-y style binning of `rows` rows: auto range from the data
/// (min/max over the rows), `res` bins per axis, count plus one sum grid
/// per value column. Mirrors the bin index rule of sensei::DataBinning.
struct RefGrid
{
  double Lo[2] = {0, 0}, Hi[2] = {0, 0};
  std::vector<double> Count;
  std::vector<std::vector<double>> Sum;
  std::vector<std::vector<double>> AbsSum; ///< sum of |value| per bin
};

void RefRange(const double *a, std::size_t n, double &lo, double &hi);

void RefAccumulate(RefGrid &g, long res, const double *ax, const double *ay,
                   const std::vector<const double *> &values, std::size_t n);

/// Compare a binning result (point arrays "count" and "<col>_sum") with a
/// reference. Counts must match exactly, sums to 1e-9 of the bin's
/// absolute sum. Returns an empty string when they agree.
std::string CompareGrid(const RefGrid &ref,
                        const std::vector<const std::vector<double> *> &got,
                        const std::vector<std::string> &names);

} // namespace pb

#endif
