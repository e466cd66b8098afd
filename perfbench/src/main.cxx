// perfbench: one workload of the end-to-end benchmark in one process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir> [--git-rev <rev>] [--scrubbed <VP_A,VP_B>]
//
// A run is several independent episodes of the workload (a fixed number
// per workload), each set up from scratch and timed for an equal share
// of the seconds. The last line of stdout is
// one JSON object with the run's metrics; <dir>/<workload>-seed<n>-
// trace<t>.json holds the full record (environment, per-episode numbers,
// per-layer self times) and, for traced runs, <dir>/<workload>-seed<n>.
// trace.json is a Chrome trace-event file (opens in Perfetto).

#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

extern char **environ;

namespace
{
using namespace pb;

double Quantile(std::vector<double> v, double q)
{
  if (v.empty())
    return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  const double f = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] * (1.0 - f) + v[i + 1] * f : v[i];
}

double Median(const std::vector<double> &v) { return Quantile(v, 0.5); }

double Min(const std::vector<double> &v)
{
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

std::string Num(double v)
{
  if (!std::isfinite(v))
    return "0";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string Str(const std::string &s)
{
  std::string o = "\"";
  for (char c : s)
  {
    if (c == '"' || c == '\\')
      o += '\\', o += c;
    else if (c == '\n')
      o += "\\n";
    else if (static_cast<unsigned char>(c) < 0x20)
      o += ' ';
    else
      o += c;
  }
  return o + "\"";
}

// --- environment probes (recorded, never used to scale a result) -----------

/// Seconds for `threads` threads to each spin through the same fixed work.
double SpinSeconds(int threads)
{
  auto spin = []
  {
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20000000; ++i)
    {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
  };
  const double t0 = Now();
  std::vector<std::thread> ts;
  for (int i = 0; i < threads; ++i)
    ts.emplace_back(spin);
  for (std::thread &t : ts)
    t.join();
  return Now() - t0;
}

/// Median seconds of a dependent sum over an L1-resident 16 KiB array.
double L1ProbeSeconds()
{
  std::vector<double> a(2048, 1.0);
  std::vector<double> t;
  volatile double sink = 0;
  for (int rep = 0; rep < 7; ++rep)
  {
    const double t0 = Now();
    double s = 0;
    for (int it = 0; it < 400; ++it)
      for (double v : a)
        s = s * 0.5 + v;
    sink = s;
    t.push_back(Now() - t0);
  }
  (void)sink;
  return Median(t);
}

std::string Isa()
{
  std::string s;
  __builtin_cpu_init();
  const std::pair<const char *, int> f[] = {
    {"sse4.2", __builtin_cpu_supports("sse4.2")},
    {"avx", __builtin_cpu_supports("avx")},
    {"avx2", __builtin_cpu_supports("avx2")},
    {"fma", __builtin_cpu_supports("fma")},
    {"avx512f", __builtin_cpu_supports("avx512f")}};
  for (const auto &[name, on] : f)
    if (on)
      s += (s.empty() ? "" : ",") + std::string(name);
  return s;
}

// --- trace post-processing ---------------------------------------------------

struct SelfTimes
{
  /// per track, per span name: self seconds of each (episode, step),
  /// summed over the spans of that name in the step
  std::map<std::string,
           std::map<std::string, std::map<std::pair<int, long>, double>>>
    Self;
  std::vector<double> Coverage; ///< per root "step" span: 1 - root self/dur
};

SelfTimes ComputeSelfTimes(const std::vector<Tracer::Track> &tracks)
{
  SelfTimes out;
  for (const Tracer::Track &tr : tracks)
  {
    std::vector<SpanRec> spans = tr.Spans;
    std::sort(spans.begin(), spans.end(),
              [](const SpanRec &a, const SpanRec &b)
              { return a.T0 != b.T0 ? a.T0 < b.T0 : a.T1 > b.T1; });
    std::vector<double> self(spans.size());
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i)
    {
      self[i] = spans[i].T1 - spans[i].T0;
      while (!stack.empty() && spans[stack.back()].T1 <= spans[i].T0)
        stack.pop_back();
      if (!stack.empty() && spans[i].T1 <= spans[stack.back()].T1)
        self[stack.back()] -= spans[i].T1 - spans[i].T0;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i)
    {
      out.Self[tr.Name][spans[i].Name][{spans[i].Episode, spans[i].Step}] +=
        self[i];
      if (std::strcmp(spans[i].Name, "step") == 0)
      {
        const double dur = spans[i].T1 - spans[i].T0;
        out.Coverage.push_back(dur > 0 ? 1.0 - self[i] / dur : 1.0);
      }
    }
  }
  return out;
}

/// Median per-step self time of span `name` on tracks starting with
/// `trackPrefix` (all matching tracks pooled); 0 when absent.
double LayerSelf(const SelfTimes &st, const std::string &trackPrefix,
                 const std::string &name, bool stepsOnly = true)
{
  std::vector<double> v;
  for (const auto &[track, names] : st.Self)
  {
    if (track.rfind(trackPrefix, 0) != 0)
      continue;
    auto it = names.find(name);
    if (it == names.end())
      continue;
    for (const auto &[key, secs] : it->second)
      if (!stepsOnly || key.second >= 0)
        v.push_back(secs);
  }
  return Median(v);
}

void WriteChromeTrace(const std::string &path,
                      const std::vector<Tracer::Track> &tracks, double t0)
{
  std::ofstream os(path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&]
  {
    if (!first)
      os << ",\n";
    first = false;
  };
  int tid = 0;
  for (const Tracer::Track &tr : tracks)
  {
    ++tid;
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":" << Str(tr.Name) << "}}";
    for (const SpanRec &s : tr.Spans)
    {
      sep();
      os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
         << ",\"name\":" << Str(s.Name) << ",\"cat\":"
         << Str(std::string(s.Name).substr(0, std::string(s.Name).find('.')))
         << ",\"ts\":" << Num((s.T0 - t0) * 1e6)
         << ",\"dur\":" << Num((s.T1 - s.T0) * 1e6)
         << ",\"args\":{\"episode\":" << s.Episode << ",\"step\":" << s.Step << "}}";
    }
  }
  os << "\n]}\n";
}

struct Metric
{
  std::string Name, Unit;
  double Value;
};

int Usage()
{
  std::cerr << "usage: perfbench --workload insitu_nbody|table1_binning|"
               "intransit_stream|svc_render --seed N --seconds S --trace 0|1"
               " --out DIR [--git-rev R] [--scrubbed LIST]\n";
  return 2;
}

} // namespace

int main(int argc, char **argv)
{
  Options opt;
  double seconds = 10;
  std::string gitRev = "unknown", scrubbed;
  for (int i = 1; i + 1 < argc; i += 2)
  {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload")
      opt.Workload = v;
    else if (k == "--seed")
      opt.Seed = static_cast<unsigned>(std::stoul(v));
    else if (k == "--seconds")
      seconds = std::stod(v);
    else if (k == "--trace")
      opt.Trace = v == "1";
    else if (k == "--out")
      opt.OutDir = v;
    else if (k == "--git-rev")
      gitRev = v;
    else if (k == "--scrubbed")
      scrubbed = v;
    else
      return Usage();
  }
  // as many episodes as leave each about 100 timed steps at the step
  // times measured on the 4-vCPU box the benchmark was tuned on; fixed
  // per workload, so a faster program is still measured the same way
  struct Workload
  {
    WorkloadFn Run;
    int Episodes;
  };
  const std::map<std::string, Workload> workloads = {
    {"insitu_nbody", {RunInsituNbody, 4}},
    {"table1_binning", {RunTable1Binning, 12}},
    {"intransit_stream", {RunIntransitStream, 3}},
    {"svc_render", {RunSvcRender, 12}}};
  if (!workloads.count(opt.Workload) || opt.OutDir.empty())
    return Usage();

  // the product defaults only: an inherited VP_* override would silently
  // change the program being measured
  for (char **e = environ; *e; ++e)
    if (std::strncmp(*e, "VP_", 3) == 0)
    {
      std::cerr << "perfbench: refusing to run with " << *e
                << " set; scrub VP_* from the environment\n";
      return 2;
    }
  std::filesystem::create_directories(opt.OutDir);

  const double runStart = Now();
  const double l1 = L1ProbeSeconds();
  const double spin1 = SpinSeconds(1), spin2 = SpinSeconds(2),
               spin4 = SpinSeconds(4);

  Tracer::Get().Enable(opt.Trace);
  Tracer::Get().NameThread("main");
  const WorkloadFn run = workloads.at(opt.Workload).Run;
  const int episodes = workloads.at(opt.Workload).Episodes;
  std::vector<Episode> eps;
  std::string xml;
  for (int e = 0; e < episodes; ++e)
  {
    opt.Seconds = seconds / episodes;
    Tracer::Get().SetEpisode(e);
    eps.push_back(run(opt, xml));
  }

  // --- end-to-end metrics ------------------------------------------------------
  // each statistic is taken per episode. The machine's interference only
  // adds time and comes in phases of seconds, so the run reports the best
  // episode: the least disturbed estimate of what the program costs.
  // Set-up time is the median over the episodes.
  std::vector<double> setup, drain, wallMed, wallP90, latMed, cpuStep, wall;
  long steps = 0, attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (const Episode &ep : eps)
  {
    setup.push_back(ep.SetupSeconds);
    drain.push_back(ep.DrainSeconds);
    wallMed.push_back(Median(ep.StepWall));
    wallP90.push_back(Quantile(ep.StepWall, 0.9));
    latMed.push_back(Median(ep.StepLatency));
    cpuStep.push_back(ep.TimedSteps ? ep.CpuSeconds / ep.TimedSteps : 0.0);
    wall.insert(wall.end(), ep.StepWall.begin(), ep.StepWall.end());
    steps += ep.TimedSteps;
    attempted += ep.Attempted;
    failed += ep.Failed;
    failures.insert(failures.end(), ep.Failures.begin(), ep.Failures.end());
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double p90 = Min(wallP90);
  const long above = std::count_if(wall.begin(), wall.end(),
                                   [p90](double w) { return w > p90; });

  std::vector<Metric> e2e = {
    {"setup_s", "s", Median(setup)},
    {"step_wall_s", "s", Min(wallMed)},
    {"step_wall_p90_s", "s", p90},
    {"step_latency_s", "s", Min(latMed)},
    {"drain_s", "s", Min(drain)},
    {"cpu_per_step_s", "s", Min(cpuStep)},
    {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0},
  };

  // --- per-layer metrics (traced run) -----------------------------------------
  std::vector<Metric> layer;
  SelfTimes st;
  const std::vector<Tracer::Track> tracks = Tracer::Get().Tracks();
  if (opt.Trace)
  {
    st = ComputeSelfTimes(tracks);
    Counters d;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> values;
    for (const Episode &ep : eps)
    {
      d += ep.Delta;
      for (const auto &[k, v] : ep.Layer)
        samples[k].insert(samples[k].end(), v.begin(), v.end());
      for (const auto &[k, v] : ep.Values)
        values[k] = v;
    }
    const double n = steps ? static_cast<double>(steps) : 1.0;
    const double exec = LayerSelf(st, "rank 0", "core.execute");
    const double epExec = LayerSelf(st, "endpoint", "core.endpoint_execute");
    const double rowsBinned =
      exec > 0 ? values["rows_binned_per_step"] / exec
               : (epExec > 0 ? 2.0 * 131072.0 / epExec : 0.0);
    std::vector<double> finalize;
    for (const auto &[track, names] : st.Self)
      if (names.count("core.finalize"))
        for (const auto &[s, secs] : names.at("core.finalize"))
          finalize.push_back(secs);
    const double hits = d.PoolHits, misses = d.PoolMisses;
    layer = {
      {"newton.step_s", "s", LayerSelf(st, "rank 0", "newton.step")},
      {"newton.pairs_per_s", "1/s", Median(samples["newton.pairs_per_s"])},
      {"newton.rank_skew", "ratio", Median(samples["newton.rank_skew"])},
      {"core.execute_s", "s", exec},
      {"core.rows_binned_per_s", "1/s", rowsBinned},
      {"core.update_s", "s", LayerSelf(st, "rank 0", "core.update")},
      {"core.release_s", "s", LayerSelf(st, "rank 0", "core.release")},
      {"core.finalize_s", "s", Median(finalize)},
      {"core.endpoint_execute_s", "s", epExec},
      {"core.endpoint_wait_s", "s",
       LayerSelf(st, "endpoint", "core.endpoint_wait")},
      {"platform.kernels_per_step", "count", d.Kernels / n},
      {"platform.copy_bytes_per_step.h2d", "bytes", d.CopyBytes[1] / n},
      {"platform.copy_bytes_per_step.d2h", "bytes", d.CopyBytes[2] / n},
      {"platform.copy_bytes_per_step.d2d", "bytes", d.CopyBytes[3] / n},
      {"exec.tasks_enqueued_per_step", "count", d.TasksEnqueued / n},
      {"exec.tasks_inline_per_step", "count", d.TasksInline / n},
      {"exec.fence_joins_per_step", "count", d.FenceJoins / n},
      {"graph.replays", "count", d.GraphReplays},
      {"graph.ops_absorbed_per_step", "count", d.GraphOpsAbsorbed / n},
      {"graph.invalidations", "count", d.GraphInvalidations},
      {"sched.submitted_per_step", "count", d.SchedSubmitted / n},
      {"sched.dropped", "count", d.SchedDropped},
      {"sched.queue_high_water", "count", d.SchedQueueHighWater},
      {"pool.hit_rate", "ratio",
       hits + misses > 0 ? hits / (hits + misses) : 0.0},
      {"pool.peak_bytes_in_use_mb", "MB", d.PoolPeakInUse / 1048576.0},
      {"comm.send_s", "s", Median(samples["comm.send_s"])},
      {"comm.barrier_wait_s", "s", LayerSelf(st, "rank 0", "comm.barrier")},
      {"compress.ratio", "ratio", d.CmpEncoded > 0 ? d.CmpRaw / d.CmpEncoded : 0.0},
      {"compress.bytes_raw_per_step", "bytes", d.CmpRaw / n},
      {"compress.bytes_encoded_per_step", "bytes", d.CmpEncoded / n},
      {"svc.send_s", "s", Median(samples["svc.send_s"])},
      {"svc.bytes_wire_per_frame", "bytes", d.SvcBytesWire / n},
      {"svc.queue_high_water", "count", d.SvcQueueHighWater},
      {"svc.frames_dropped", "count", d.SvcFramesDropped},
      {"viz.frames_rendered_per_frame", "count", d.VizFramesRendered / n},
      {"vp.virtual_step_s", "s", Median(samples["vp.virtual_step_s"])},
      {"vp.virtual_solver_s", "s", Median(samples["vp.virtual_solver_s"])},
      {"vp.virtual_insitu_s", "s", Median(samples["vp.virtual_insitu_s"])},
      {"trace.step_wall_s", "s", Min(wallMed)},
      {"trace.coverage_min", "ratio",
       st.Coverage.empty()
         ? 0.0
         : *std::min_element(st.Coverage.begin(), st.Coverage.end())},
    };
    WriteChromeTrace(opt.OutDir + "/" + opt.Workload + "-seed" +
                       std::to_string(opt.Seed) + ".trace.json",
                     tracks, runStart);
  }

  bool correct = failed == 0 && attempted > 0;
  if (above < 10)
  {
    correct = false;
    failures.push_back("only " + std::to_string(above) +
                       " samples above the p90; run longer");
  }

  // --- the full record -----------------------------------------------------------
  const std::string stem = opt.OutDir + "/" + opt.Workload + "-seed" +
                           std::to_string(opt.Seed) + "-trace" +
                           (opt.Trace ? "1" : "0");
  {
    std::ofstream os(stem + ".json");
    os << "{\n \"workload\": " << Str(opt.Workload)
       << ",\n \"seed\": " << opt.Seed << ",\n \"seconds\": " << Num(seconds)
       << ",\n \"episodes\": " << episodes << ",\n \"trace\": "
       << (opt.Trace ? "true" : "false") << ",\n \"environment\": {"
       << "\"build_type\": " << Str(PERFBENCH_BUILD_TYPE)
       << ", \"cxx_flags\": " << Str(PERFBENCH_CXX_FLAGS)
       << ", \"compiler\": " << Str(__VERSION__) << ", \"isa\": " << Str(Isa())
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"spin_s\": {\"1\": " << Num(spin1) << ", \"2\": " << Num(spin2)
       << ", \"4\": " << Num(spin4) << "}, \"parallel_ceiling\": {\"1\": 1"
       << ", \"2\": " << Num(2 * spin1 / spin2)
       << ", \"4\": " << Num(4 * spin1 / spin4) << "}"
       << ", \"l1_probe_s\": " << Num(l1) << ", \"git_rev\": " << Str(gitRev)
       << ", \"scrubbed_vp_env\": " << Str(scrubbed)
       << ", \"effective_xml\": " << Str(xml) << "},\n \"episodes_detail\": [";
    for (std::size_t i = 0; i < eps.size(); ++i)
    {
      os << (i ? ", " : "") << "{\"setup_s\": " << Num(eps[i].SetupSeconds)
         << ", \"drain_s\": " << Num(eps[i].DrainSeconds)
         << ", \"timed_steps\": " << eps[i].TimedSteps
         << ", \"step_wall_median_s\": " << Num(wallMed[i])
         << ", \"step_wall_p90_s\": " << Num(wallP90[i])
         << ", \"step_latency_median_s\": " << Num(latMed[i])
         << ", \"cpu_per_step_s\": " << Num(cpuStep[i])
         << ", \"attempted\": " << eps[i].Attempted
         << ", \"failed\": " << eps[i].Failed;
      for (const auto &[k, v] : eps[i].Values)
        os << ", " << Str(k) << ": " << Num(v);
      os << "}";
    }
    os << "],\n \"samples\": " << wall.size()
       << ",\n \"samples_above_p90\": " << above << ",\n \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
      os << (i ? ", " : "") << Str(failures[i]);
    os << "],\n \"metrics\": {";
    bool firstMetric = true;
    for (const std::vector<Metric> *list : {&e2e, &layer})
      for (const Metric &m : *list)
      {
        os << (firstMetric ? "" : ", ") << Str(m.Name) << ": " << Num(m.Value);
        firstMetric = false;
      }
    os << "}";
    if (opt.Trace)
    {
      os << ",\n \"self_time_per_step_s\": {";
      bool ft = true;
      for (const auto &[track, names] : st.Self)
      {
        os << (ft ? "" : ", ") << Str(track) << ": {";
        ft = false;
        bool fn = true;
        for (const auto &[name, steps] : names)
        {
          std::vector<double> v;
          for (const auto &[s, secs] : steps)
            v.push_back(secs);
          os << (fn ? "" : ", ") << Str(name) << ": " << Num(Median(v));
          fn = false;
        }
        os << "}";
      }
      const long covered =
        std::count_if(st.Coverage.begin(), st.Coverage.end(),
                      [](double c) { return c >= 0.95; });
      os << "},\n \"coverage\": {\"steps\": " << st.Coverage.size()
         << ", \"within_5_percent\": " << covered
         << ", \"median\": " << Num(Median(st.Coverage)) << "}";
    }
    os << "\n}\n";
  }

  for (const std::string &f : failures)
    std::cerr << "perfbench: " << f << '\n';

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  const std::vector<Metric> &printed = opt.Trace ? layer : e2e;
  for (std::size_t i = 0; i < printed.size(); ++i)
    out << (i ? ", " : "") << Str(printed[i].Name) << ": {\"value\": "
        << Num(printed[i].Value) << ", \"unit\": " << Str(printed[i].Unit)
        << "}";
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}
