// Repository benchmark driver: runs one workload against the servers
// through their public entry points and prints one JSON result line.
//
//   firbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (all under the adaptive "firestarter" policy preset):
//   http-static  miniginx, cooperative run_once(), 4 keep-alive connections
//                x 8 pipelined GETs over the default docroot.
//   http-faults  http-static plus 1 request in 16 carrying a Range header;
//                a persistent real SIGSEGV is armed at the range_request
//                fault marker, so every Range request is rolled back,
//                retried, compensated and diverted into a 404.
//   kv-mixed     minikv with its AOF on the durable VFS, fsync policy batch
//                + group commit 8; 50% SET / 50% GET over 2048 keys; a fixed
//                command count per round, then a fresh minikv restarts from
//                the round's crash image.
//
// A run is a sequence of segments (kv-mixed: rounds), each with a server of
// its own: set-up samples, warmup, measured load, restart samples. Spread
// over the whole run, the set-up and restart samples see the same machine
// as the load does. (A spare server cannot be timed next to a live one:
// destroying a TxManager clears the process-wide HTM abort hook the other
// still relies on.) With --trace 1, segments alternate between untraced
// and traced; the traced ones time the driver's own calls into the servers
// and clients and take counter deltas from MetricsRegistry::snapshot(),
// Env::stats() and Vfs::persist_stats().
//
// Every response is checked; a failed check, or a guard finding that the
// mechanism under test did not run, makes the exit code 1. The last stdout
// line is the JSON result: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "apps/minikv.h"
#include "apps/miniginx.h"
#include "apps/registry.h"
#include "common/rng.h"
#include "workload/http_client.h"
#include "workload/kv_client.h"

namespace fir::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The mean of the best 2% of a run's samples (at least one): the highest
/// of a higher-is-better series, the lowest of a lower-is-better one. On a
/// shared machine whole stretches of a run, at times most of it, go slow
/// while neighbours are busy; this reports what the code does in the run's
/// least disturbed moments, while a change that slows every sample still
/// moves it in full.
double best_share(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  if (higher_is_better) {
    std::sort(v.begin(), v.end(), std::greater<>());
  } else {
    std::sort(v.begin(), v.end());
  }
  const std::size_t k = std::max<std::size_t>(1, v.size() / 50);
  return std::accumulate(v.begin(), v.begin() + static_cast<long>(k), 0.0) /
         static_cast<double>(k);
}

/// Nearest-rank percentile (p in [0, 100]) of unsorted values.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t i = static_cast<std::size_t>(rank);
  if (static_cast<double>(i) == rank && i > 0) --i;
  return v[std::min(i, v.size() - 1)];
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// --- measurement primitives -------------------------------------------------

/// Time spent in, and number of, one kind of call the driver makes.
struct Span {
  double ns = 0.0;
  std::uint64_t calls = 0;
  double mean_us() const {
    return calls == 0 ? 0.0 : ns / 1000.0 / static_cast<double>(calls);
  }
  void add(const Span& o) {
    ns += o.ns;
    calls += o.calls;
  }
};

/// Calls f(); when `span` is set, also accounts its wall time there.
template <class F>
auto timed(Span* span, F&& f) {
  if (span == nullptr) return f();
  const Clock::time_point t0 = Clock::now();
  auto r = f();
  span->ns += static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  ++span->calls;
  return r;
}

/// Per-slice latency percentiles. Slices fill in order: the open slice
/// keeps every latency, and closing it keeps only its count, p50 and p99,
/// so memory does not grow with the length of the run.
class SliceRecorder {
 public:
  explicit SliceRecorder(int slices)
      : count_(static_cast<std::size_t>(slices), 0),
        p50_(static_cast<std::size_t>(slices), 0.0),
        p99_(static_cast<std::size_t>(slices), 0.0) {}

  int slices() const { return static_cast<int>(count_.size()); }

  void record(int slice, double us) {
    if (slice != open_) close();
    open_ = slice;
    samples_.push_back(us);
  }
  /// Closes the open slice; the next record() opens a later one.
  void close() {
    if (open_ < 0) return;
    count_[open_] = samples_.size();
    p50_[open_] = percentile(samples_, 50);
    p99_[open_] = percentile(samples_, 99);
    samples_.clear();
    open_ = -1;
  }

  std::uint64_t count(int slice) const {
    return slice < slices() ? count_[slice] : 0;
  }
  double p50(int slice) const { return p50_[slice]; }
  double p99(int slice) const { return p99_[slice]; }

 private:
  int open_ = -1;
  std::vector<double> samples_;
  std::vector<std::uint64_t> count_;
  std::vector<double> p50_;
  std::vector<double> p99_;
};

using Counters = std::map<std::string, double>;

/// Counter state of one server: registry snapshot plus Env and VFS tallies.
Counters snapshot_counters(Server& server) {
  Counters c;
  for (const obs::MetricSample& m : server.fx().mgr().metrics().snapshot()) {
    if (m.kind != obs::MetricSample::Kind::kHistogram) c[m.name] = m.value;
  }
  const EnvStats& env = server.fx().env().stats();
  c["env.syscalls"] = static_cast<double>(env.syscalls);
  c["env.heap_allocs"] = static_cast<double>(env.heap_allocs);
  const PersistStats& ps = server.fx().env().vfs().persist_stats();
  c["vfs.barriers"] = static_cast<double>(ps.barriers);
  c["vfs.bytes_synced"] = static_cast<double>(ps.bytes_synced);
  c["recovery.latency_samples"] =
      static_cast<double>(server.fx().mgr().recovery_latency().count());
  return c;
}

Counters operator-(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    d[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

double get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- results ----------------------------------------------------------------

/// The measured segments of one mode (untraced or traced) of a run.
struct Window {
  Window(bool traced_mode, int slices, bool faults)
      : traced(traced_mode),
        latency(slices),
        recovered(faults ? slices : 0) {}

  /// Index the next segment's first slice gets.
  int next_slice() const { return static_cast<int>(slice_seconds.size()); }
  /// Ends a segment of `n` slices of `slice_s`; the last one also covers
  /// the drain up to `wall`.
  void close_segment(int n, double slice_s, double wall) {
    for (int i = 0; i + 1 < n; ++i) slice_seconds.push_back(slice_s);
    slice_seconds.push_back(wall - slice_s * (n - 1));
  }
  void add_delta(const Counters& d) {
    for (const auto& [name, value] : d) delta[name] += value;
  }

  /// Per-slice end-to-end series, from the recorders.
  void finish() {
    latency.close();
    recovered.close();
    for (int s = 0; s < next_slice(); ++s) {
      const std::uint64_t n = latency.count(s);
      if (n == 0 || slice_seconds[s] <= 0.0) continue;
      slice_ops_per_s.push_back(static_cast<double>(n) / slice_seconds[s]);
      slice_p50_us.push_back(latency.p50(s));
      slice_p99_us.push_back(latency.p99(s));
      if (recovered.count(s) > 0)
        slice_recovered_p99_us.push_back(recovered.p99(s));
    }
  }

  bool traced;
  SliceRecorder latency;
  SliceRecorder recovered;  // requests that took the recovery path
  std::vector<double> slice_seconds;
  std::vector<double> slice_ops_per_s;
  std::vector<double> slice_p50_us;
  std::vector<double> slice_p99_us;
  std::vector<double> slice_recovered_p99_us;
  std::uint64_t completed = 0;  // correct responses, measured
  std::uint64_t faulty = 0;     // of which took the recovery path
  Counters delta;               // counter deltas over the measured load
  Span run_once;                // cooperative event-loop passes
  Span client;                  // generator connect/send/recv calls
  double wall_s = 0.0;          // wall time of the measured load
  std::uint64_t acked_sets = 0;     // kv-mixed
  Span replay;                      // kv-mixed: restart's start()
  std::uint64_t replayed_records = 0;
  std::vector<double> recovery_us;  // recovery episodes, traced only
};

/// Everything a run reports.
struct RunReport {
  std::vector<std::unique_ptr<Window>> windows;  // [0] untraced, [1] traced
  std::vector<double> setup_s;
  std::vector<double> restart_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  double policy_demotions = 0.0;

  void error(const std::string& what) {
    if (errors.size() < 16) errors.push_back(what);
  }
  Window& window(bool traced) { return *windows[traced ? 1 : 0]; }
};

/// Segments per run: ~3.5 s each, and with tracing at least one per mode.
int segment_count(double seconds, bool trace) {
  const int n = std::max(1, static_cast<int>(std::lround(seconds / 3.5)));
  return trace ? std::max(2, n + n % 2) : n;
}

// --- HTTP workloads -----------------------------------------------------------

enum Target : std::uint8_t {
  kIndex,
  kAbout,
  kStyle,
  kApi,
  kLarge,
  kShtml,
  kTargetCount
};
constexpr std::array<const char*, kTargetCount> kPaths = {
    "/index.html", "/about.txt", "/style.css",
    "/api.json",   "/large.bin", "/page.shtml"};
constexpr const char* kRangeHeader = "Range: bytes=0-9\r\n";
constexpr std::string_view kNotFound = "<h1>404 Not Found</h1>";

struct HttpReq {
  Target target = kIndex;
  bool range = false;
};

/// Seeded GET mix: 1/8 large.bin (big-file path), 1/8 page.shtml (SSI),
/// the rest spread over the four small files; with `faults`, 1 request in
/// 16 also carries a Range header.
HttpReq draw_http(Rng& rng, bool faults) {
  HttpReq r;
  const std::uint64_t u = rng.next_below(8);
  r.target = u == 0   ? kLarge
             : u == 1 ? kShtml
                      : static_cast<Target>(rng.next_below(4));
  r.range = faults && rng.next_below(16) == 0;
  return r;
}

/// Expected bytes of every target, read from the server's own docroot.
struct Docroot {
  std::array<std::string, kTargetCount> body;
  std::array<std::string, kTargetCount> first10;
};

/// miniginx's SSI variables are fixed strings; expand the page with them.
std::string expand_ssi(std::string page) {
  const std::pair<const char*, const char*> vars[] = {
      {"<!--#echo var=\"HOST\" -->", "miniginx"},
      {"<!--#echo var=\"DATE\" -->", "2026-07-04"}};
  for (const auto& [directive, value] : vars) {
    for (std::size_t at; (at = page.find(directive)) != std::string::npos;)
      page.replace(at, std::strlen(directive), value);
  }
  return page;
}

bool load_docroot(Miniginx& server, Docroot& doc, RunReport& rep) {
  for (int t = 0; t < kTargetCount; ++t) {
    const auto inode =
        server.fx().env().vfs().lookup(std::string("/www") + kPaths[t]);
    if (inode == nullptr) {
      rep.error(std::string("docroot lacks ") + kPaths[t]);
      return false;
    }
    const std::string raw(inode->data.begin(), inode->data.end());
    doc.body[t] = t == kShtml ? expand_ssi(raw) : raw;
    doc.first10[t] = raw.substr(0, 10);
    if (doc.body[t].find("<!--#") != std::string::npos) {
      rep.error("unexpected SSI directive in page.shtml");
      return false;
    }
  }
  return true;
}

/// Output check for one HTTP response.
bool check_http(const Docroot& doc, const HttpReq& req, bool armed,
                const HttpClient::Response& r) {
  if (req.range) {
    if (armed) return r.status == 404 && r.body == kNotFound;
    return r.status == 206 && r.body == doc.first10[req.target];
  }
  return r.status == 200 && r.body == doc.body[req.target];
}

struct PendingHttp {
  HttpReq req;
  Clock::time_point sent;
};

/// One keep-alive connection of the generator.
struct HttpConn {
  HttpConn(Env& env, std::uint16_t port, std::uint64_t seed)
      : client(env, port), rng(seed) {}
  HttpClient client;
  Rng rng;
  std::deque<PendingHttp> inflight;
  int idle_passes = 0;
};

/// Where a phase's completions go. A null `latency`: warmup (responses are
/// checked, not measured).
struct HttpSink {
  SliceRecorder* latency = nullptr;
  SliceRecorder* recovered = nullptr;
  Clock::time_point t0;
  int slice_base = 0;
  int slices = 1;
  double slice_s = 1.0;
  Span* client = nullptr;
  std::uint64_t completed = 0;
  std::uint64_t faulty = 0;
  std::uint64_t range_answered = 0;  // while the fault was armed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void lose(std::size_t n) {
    attempted += n;
    failed += n;
  }
};

/// Drains every buffered response of `c`. A broken connection loses its
/// in-flight requests (counted as failed) and is closed.
void drain_http(HttpConn& c, const Docroot& doc, bool armed, HttpSink& sink,
                RunReport& rep) {
  for (;;) {
    HttpClient::Response resp;
    const int got =
        timed(sink.client, [&] { return c.client.try_read_response(resp); });
    if (got == 0) return;
    if (got < 0 || c.inflight.empty()) {
      sink.lose(c.inflight.size());
      rep.error("http: connection broke with requests in flight");
      c.inflight.clear();
      c.client.close();
      return;
    }
    const Clock::time_point done = Clock::now();
    const PendingHttp p = c.inflight.front();
    c.inflight.pop_front();
    c.idle_passes = 0;
    ++sink.attempted;
    if (p.req.range && armed) ++sink.range_answered;
    if (!check_http(doc, p.req, armed, resp)) {
      ++sink.failed;
      rep.error(std::string("http: wrong response to ") + kPaths[p.req.target] +
                (p.req.range ? " (Range)" : "") + ": status " +
                std::to_string(resp.status) + ", " +
                std::to_string(resp.body.size()) + " body bytes");
      continue;
    }
    if (sink.latency == nullptr) continue;
    const int slice =
        sink.slice_base +
        std::min(sink.slices - 1,
                 static_cast<int>(seconds_between(sink.t0, done) /
                                  sink.slice_s));
    const double us =
        std::chrono::duration<double, std::micro>(done - p.sent).count();
    sink.latency->record(slice, us);
    ++sink.completed;
    if (p.req.range && armed) {
      ++sink.faulty;
      sink.recovered->record(slice, us);
    }
  }
}

/// Tops `c` up to `depth` requests in flight.
void fill_http(HttpConn& c, int depth, bool faults, HttpSink& sink,
               RunReport& rep) {
  if (!c.client.connected() &&
      !timed(sink.client, [&] { return c.client.connect(); })) {
    sink.lose(1);
    rep.error("http: connect failed");
    return;
  }
  while (static_cast<int>(c.inflight.size()) < depth) {
    const HttpReq req = draw_http(c.rng, faults);
    const bool ok = timed(sink.client, [&] {
      return c.client.send_request("GET", kPaths[req.target], {}, true,
                                   req.range ? kRangeHeader : "");
    });
    if (!ok) {
      sink.lose(c.inflight.size() + 1);
      rep.error("http: send failed");
      c.inflight.clear();
      c.client.close();
      return;
    }
    c.inflight.push_back({req, Clock::now()});
  }
}

/// A connection whose requests see no response for this many passes has
/// lost them.
constexpr int kUnansweredPasses = 20000;

void check_unanswered(HttpConn& c, HttpSink& sink, RunReport& rep) {
  if (c.inflight.empty() || ++c.idle_passes <= kUnansweredPasses) return;
  sink.lose(c.inflight.size());
  rep.error("http: requests left unanswered");
  c.inflight.clear();
  c.client.close();
}

/// logrotate's copytruncate, through the server's Env. The VFS is in
/// memory, so an unrotated access log would make peak RSS grow with the
/// number of requests served instead of measuring the server.
void rotate_access_log(Miniginx& server) {
  Env& env = server.fx().env();
  const int fd = env.open("/logs/miniginx.access.log", kWrOnly | kTrunc);
  if (fd >= 0) env.close(fd);
}

/// When a phase of the closed loop stops sending: after a number of passes
/// (cooperative warmups, so the same seed reaches the measured load in the
/// same state) or at a point in time.
struct StopAt {
  std::uint64_t passes = 0;  // 0: use `time`
  Clock::time_point time;

  bool reached(std::uint64_t pass) const {
    return passes > 0 ? pass > passes : Clock::now() >= time;
  }
};

StopAt after_passes(std::uint64_t n) { return {n, {}}; }
StopAt after_seconds(double s) { return {0, after(s)}; }

/// The closed loop: top up every connection to 8 requests in flight, one
/// run_once() pass, drain the responses; until `stop`, then keep passing
/// without sending until nothing is in flight.
void run_http(Miniginx& server, std::vector<HttpConn>& conns,
              const Docroot& doc, bool faults, bool armed, StopAt stop,
              HttpSink& sink, Span* run_once, RunReport& rep) {
  constexpr int kDepth = 8;
  for (std::uint64_t pass = 1;; ++pass) {
    if (pass % 256 == 0) rotate_access_log(server);
    const bool sending = !stop.reached(pass);
    if (sending) {
      for (HttpConn& c : conns) fill_http(c, kDepth, faults, sink, rep);
    }
    timed(run_once, [&] {
      server.run_once();
      return 0;
    });
    bool any_inflight = false;
    for (HttpConn& c : conns) {
      drain_http(c, doc, armed, sink, rep);
      check_unanswered(c, sink, rep);
      any_inflight = any_inflight || !c.inflight.empty();
    }
    if (!sending && !any_inflight) return;
  }
}

std::unique_ptr<Miniginx> start_miniginx(const TxManagerConfig& cfg) {
  auto s = std::make_unique<Miniginx>(cfg);
  return s->start(Miniginx::kDefaultPort).is_ok() ? std::move(s) : nullptr;
}

/// True once a GET /index.html is answered with 200 by `server`.
bool first_response(Miniginx& server) {
  HttpClient client(server.fx().env(), server.port());
  if (!client.connect() || !client.send_request("GET", "/index.html"))
    return false;
  for (int i = 0; i < kUnansweredPasses; ++i) {
    server.run_once();
    HttpClient::Response r;
    const int got = client.try_read_response(r);
    if (got != 0) return got == 1 && r.status == 200;
  }
  return false;
}

/// Set-up and restart take well under a millisecond: each segment samples
/// them many times. The run reports the median set-up and the best-2%
/// restart.
constexpr int kRepsPerSegment = 16;

/// Set-up samples: construct + start (docroot install included) until the
/// first request can be sent. Returns the last instance, running.
std::unique_ptr<Miniginx> sample_setups(const TxManagerConfig& cfg,
                                        RunReport& rep) {
  std::unique_ptr<Miniginx> server;
  for (int i = 0; i < kRepsPerSegment; ++i) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = start_miniginx(cfg);
    rep.setup_s.push_back(seconds_between(t0, Clock::now()));
    if (server == nullptr) {
      rep.error("miniginx failed to start");
      return nullptr;
    }
  }
  return server;
}

/// Restart-to-serving samples: stop the server, start a fresh one, until
/// its first request is answered.
void sample_restarts(std::unique_ptr<Miniginx> server,
                     const TxManagerConfig& cfg, RunReport& rep) {
  for (int i = 0; i < kRepsPerSegment; ++i) {
    const Clock::time_point t0 = Clock::now();
    server->stop();
    server.reset();
    server = start_miniginx(cfg);
    if (server == nullptr || !first_response(*server)) {
      rep.error("restarted miniginx did not serve");
      return;
    }
    rep.restart_s.push_back(seconds_between(t0, Clock::now()));
  }
}

/// Looks up a fault marker by name (markers register on first visit).
MarkerId find_marker(Hsfi& hsfi, const char* name) {
  for (const Marker& m : hsfi.markers())
    if (m.name == name) return m.id;
  return kInvalidMarker;
}

/// 0.1 s slices of a ~3.5 s segment.
constexpr int kSlicesPerSegment = 35;
/// Warmup in passes of 32 requests (~0.25 s), so the same seed reaches the
/// measured load in the same state.
constexpr std::uint64_t kWarmupPasses = 1000;

/// Settles a phase's attempted/failed tallies into the run's.
void settle(const HttpSink& sink, RunReport& rep) {
  rep.attempted += sink.attempted;
  rep.failed += sink.failed;
}

/// One segment of an HTTP workload: its own server, warmup, measured load.
void http_segment(bool faults, const TxManagerConfig& cfg, std::uint64_t seed,
                  double segment_s, Window& w, RunReport& rep) {
  std::unique_ptr<Miniginx> server = sample_setups(cfg, rep);
  Docroot doc;
  if (server == nullptr || !load_docroot(*server, doc, rep)) return;
  std::vector<HttpConn> conns;
  conns.reserve(4);
  for (std::uint64_t i = 0; i < 4; ++i)
    conns.emplace_back(server->fx().env(), server->port(),
                       split_seed(seed, i));

  // Warmup: the adaptive policy settles, every fault marker registers.
  HttpSink warm;
  run_http(*server, conns, doc, faults, false, after_passes(kWarmupPasses),
           warm, nullptr, rep);
  settle(warm, rep);
  Counters armed_at;
  std::uint64_t range_answered = 0;
  if (faults) {
    const MarkerId marker = find_marker(server->fx().hsfi(), "range_request");
    if (marker == kInvalidMarker) {
      rep.error("range_request marker never ran during warmup");
      return;
    }
    armed_at = snapshot_counters(*server);
    FaultPlan plan;
    plan.marker = marker;
    plan.type = FaultType::kRealCrash;
    plan.kind = CrashKind::kSegv;
    server->fx().hsfi().arm(plan);
    HttpSink warm_armed;  // the recovery path warms up too
    run_http(*server, conns, doc, true, true, after_passes(kWarmupPasses / 2),
             warm_armed, nullptr, rep);
    settle(warm_armed, rep);
    range_answered += warm_armed.range_answered;
  }

  HttpSink sink;
  sink.latency = &w.latency;
  sink.recovered = &w.recovered;
  sink.slice_base = w.next_slice();
  sink.slices = kSlicesPerSegment;
  sink.slice_s = segment_s / kSlicesPerSegment;
  sink.client = w.traced ? &w.client : nullptr;
  const Counters before = snapshot_counters(*server);
  sink.t0 = Clock::now();
  run_http(*server, conns, doc, faults, faults, after_seconds(segment_s),
           sink, w.traced ? &w.run_once : nullptr, rep);
  const double wall = seconds_between(sink.t0, Clock::now());
  const Counters done = snapshot_counters(*server);
  w.add_delta(done - before);
  // Only the traced window reports recovery episodes; keeping them in an
  // untraced run would make its peak RSS grow with its throughput.
  const std::vector<double>& episodes =
      server->fx().mgr().recovery_latency().samples();
  for (std::size_t i =
           static_cast<std::size_t>(get(before, "recovery.latency_samples"));
       w.traced && i < episodes.size(); ++i)
    w.recovery_us.push_back(episodes[i] * 1e6);
  w.close_segment(kSlicesPerSegment, sink.slice_s, wall);
  w.wall_s += wall;
  w.completed += sink.completed;
  w.faulty += sink.faulty;
  settle(sink, rep);
  range_answered += sink.range_answered;

  if (faults) {
    // Non-vacuous guards: the crash path really ran, through the signal
    // channel, and every answered Range request was diverted exactly once.
    const Counters since = done - armed_at;
    if (get(since, "recovery.crashes") <= 0)
      rep.error("guard: no crash was recovered");
    if (get(since, "recovery.signals_caught") <= 0)
      rep.error("guard: no signal reached the recovery channel");
    if (get(since, "recovery.diversions") !=
        static_cast<double>(range_answered))
      rep.error("guard: diversions (" +
                std::to_string(get(since, "recovery.diversions")) +
                ") != Range requests answered (" +
                std::to_string(range_answered) + ")");
    server->fx().hsfi().disarm();
  }
  rep.policy_demotions = get(done, "policy.demotions");
  conns.clear();
  sample_restarts(std::move(server), cfg, rep);
}

void run_http_workload(bool faults, std::uint64_t seed, double seconds,
                       bool trace, RunReport& rep) {
  TxManagerConfig cfg = apps::named_policy_config("firestarter");
  cfg.real_signals = faults;
  const int segments = segment_count(seconds, trace);
  const int per_mode = trace ? segments / 2 : segments;
  for (int m = 0; m < (trace ? 2 : 1); ++m)
    rep.windows.push_back(std::make_unique<Window>(
        m == 1, per_mode * kSlicesPerSegment, faults));
  for (int seg = 0; seg < segments; ++seg) {
    http_segment(faults, cfg,
                 split_seed(seed, 1000 + static_cast<std::uint64_t>(seg)),
                 seconds / segments, rep.window(trace && seg % 2 == 1), rep);
    if (!rep.errors.empty()) return;
  }
}

// --- kv-mixed -------------------------------------------------------------------

constexpr int kKvKeys = 2048;
constexpr int kKvConns = 4;
constexpr int kKvDepth = 16;
/// Fixed command count per round: the AOF a restart replays has the same
/// size on every commit. Rounds repeat until the time budget is spent.
constexpr std::uint64_t kRoundCommands = 262144;
/// A round's completions are cut into slices of this many commands
/// (~0.07 s each).
constexpr std::uint64_t kSliceCommands = 32768;
constexpr int kSlicesPerRound =
    static_cast<int>(kRoundCommands / kSliceCommands);
constexpr int kMaxRounds = 200;

std::string kv_key(int k) { return "key:" + std::to_string(k); }

/// minikv with the durable fleet's settings: AOF on, fsync policy batch
/// with group commit 8; with `image`, on the files a crash left behind.
std::unique_ptr<Minikv> start_minikv(const Vfs* image, Span* start) {
  auto kv = std::make_unique<Minikv>(apps::named_policy_config("firestarter"));
  if (image != nullptr) kv->fx().env().vfs().import_from(*image);
  kv->enable_aof(true);
  kv->set_fsync_policy(FsyncPolicy::kBatch);
  kv->set_group_commit({8, 0});
  const bool ok = timed(start, [&] { return kv->start(0).is_ok(); });
  return ok ? std::move(kv) : nullptr;
}

struct PendingKv {
  bool set = false;
  int key = 0;
  std::string value;  // SET: the value sent; GET: the expected reply
  Clock::time_point sent;
};

struct KvConn {
  KvConn(Env& env, std::uint16_t port, std::uint64_t seed)
      : client(env, port), rng(seed) {}
  KvClient client;
  Rng rng;
  std::deque<PendingKv> inflight;
  int idle_passes = 0;
};

/// GETs every key from `kv` and compares with `expect` ("$-1": never
/// acked). Counts nil replies for acked keys as missing, others as stale.
void audit_kv(Minikv& kv, const std::vector<std::string>& expect,
              std::uint64_t& missing, std::uint64_t& stale) {
  KvClient client(kv.fx().env(), kv.port());
  if (!client.connect()) {
    missing += expect.size();
    return;
  }
  for (int base = 0; base < kKvKeys; base += 64) {
    const int end = std::min(kKvKeys, base + 64);
    for (int k = base; k < end; ++k) client.send_command("GET " + kv_key(k));
    for (int k = base; k < end; ++k) {
      std::string reply = "<no reply>";
      for (int spin = 0; spin < 1000; ++spin) {
        if (client.try_read_reply(reply) == 1) break;
        kv.run_once();
      }
      if (reply == expect[k]) continue;
      ++(reply == "$-1" ? missing : stale);
    }
  }
}

/// One round: set-up, kRoundCommands commands, then restart-to-serving
/// from the round's crash image and the durability audit.
void kv_round(std::uint64_t seed, Window& w, RunReport& rep) {
  std::unique_ptr<Minikv> kv;
  for (int i = 0; i < kRepsPerSegment; ++i) {
    kv.reset();
    const Clock::time_point s0 = Clock::now();
    kv = start_minikv(nullptr, nullptr);
    rep.setup_s.push_back(seconds_between(s0, Clock::now()));
    if (kv == nullptr) {
      rep.error("minikv failed to start");
      return;
    }
  }
  std::vector<std::unique_ptr<KvConn>> conns;
  for (int c = 0; c < kKvConns; ++c)
    conns.push_back(std::make_unique<KvConn>(
        kv->fx().env(), kv->port(),
        split_seed(seed, static_cast<std::uint64_t>(c))));
  // Keys are partitioned across connections (key % 4 == connection), so a
  // key's commands are ordered by its connection: the expected GET reply
  // and the last acked SET per key are exact.
  std::vector<std::string> model(kKvKeys, "$-1");
  std::vector<std::string> acked(kKvKeys, "$-1");
  Span* client_span = w.traced ? &w.client : nullptr;
  SliceRecorder& lat = w.latency;
  const int first_slice = w.next_slice();
  std::uint64_t sent = 0, done = 0, lost = 0, acked_sets = 0, seq = 0;

  const Counters before = snapshot_counters(*kv);
  const Clock::time_point t0 = Clock::now();
  Clock::time_point slice_start = t0;
  for (bool any_inflight = true; sent < kRoundCommands || any_inflight;) {
    for (int ci = 0; ci < kKvConns; ++ci) {
      KvConn& c = *conns[ci];
      if (!c.client.connected() &&
          !timed(client_span, [&] { return c.client.connect(); })) {
        rep.error("kv: connect failed");
        ++lost;
        continue;
      }
      while (sent < kRoundCommands &&
             static_cast<int>(c.inflight.size()) < kKvDepth) {
        PendingKv p;
        p.key = ci + kKvConns * static_cast<int>(
                                    c.rng.next_below(kKvKeys / kKvConns));
        p.set = c.rng.next_below(2) == 0;
        std::string line;
        if (p.set) {
          p.value = "v" + std::to_string(seq++);
          model[p.key] = p.value;
          line = "SET " + kv_key(p.key) + " " + p.value;
        } else {
          p.value = model[p.key];
          line = "GET " + kv_key(p.key);
        }
        ++sent;
        if (!timed(client_span, [&] { return c.client.send_command(line); })) {
          rep.error("kv: send failed");
          ++lost;
          break;
        }
        p.sent = Clock::now();
        c.inflight.push_back(std::move(p));
      }
    }
    timed(w.traced ? &w.run_once : nullptr, [&] {
      kv->run_once();
      return 0;
    });
    any_inflight = false;
    for (auto& cp : conns) {
      KvConn& c = *cp;
      for (;;) {
        std::string reply;
        const int got =
            timed(client_span, [&] { return c.client.try_read_reply(reply); });
        if (got == 0) break;
        if (got < 0 || c.inflight.empty()) {
          lost += c.inflight.size();
          rep.error("kv: connection broke with commands in flight");
          c.inflight.clear();
          c.client.close();
          break;
        }
        const Clock::time_point now = Clock::now();
        const PendingKv p = std::move(c.inflight.front());
        c.inflight.pop_front();
        c.idle_passes = 0;
        if (p.set ? reply != "+OK" : reply != p.value) {
          ++lost;
          rep.error("kv: " + std::string(p.set ? "SET " : "GET ") +
                    kv_key(p.key) + " answered \"" + reply + "\"");
          continue;
        }
        if (p.set) {
          acked[p.key] = p.value;
          ++acked_sets;
        }
        lat.record(first_slice + static_cast<int>(done / kSliceCommands),
                   std::chrono::duration<double, std::micro>(now - p.sent)
                       .count());
        if (++done % kSliceCommands == 0) {
          w.slice_seconds.push_back(seconds_between(slice_start, now));
          slice_start = now;
        }
      }
      if (!c.inflight.empty() && ++c.idle_passes > kUnansweredPasses) {
        lost += c.inflight.size();
        rep.error("kv: commands left unanswered");
        c.inflight.clear();
        c.client.close();
      }
      any_inflight = any_inflight || !c.inflight.empty();
    }
  }
  const Clock::time_point t1 = Clock::now();
  const double wall = seconds_between(t0, t1);
  const Counters delta = snapshot_counters(*kv) - before;
  w.add_delta(delta);
  if (done % kSliceCommands != 0)  // only when commands were lost
    w.slice_seconds.push_back(seconds_between(slice_start, t1));
  w.completed += done;
  w.acked_sets += acked_sets;
  w.wall_s += wall;
  rep.attempted += done + lost;
  rep.failed += lost;
  // Non-vacuous guards: the durable barrier path and group commit ran.
  if (get(delta, "persist.barriers") <= 0)
    rep.error("guard: no durability barrier ran");
  if (get(delta, "persist.group_commits") <= 0)
    rep.error("guard: no group commit retired");

  // Restart-to-serving from what a crash would leave: only durable bytes,
  // so the audit below checks that every acked SET had reached them.
  for (auto& cp : conns) cp->client.close();
  const Vfs image = kv->fx().env().vfs().crash_image();
  Span start_span;
  const Clock::time_point r0 = Clock::now();
  kv->stop();
  kv.reset();
  kv = start_minikv(&image, &start_span);
  bool served = false;
  if (kv != nullptr) {
    KvClient probe(kv->fx().env(), kv->port());
    if (probe.connect() && probe.send_command("GET " + kv_key(0))) {
      std::string reply;
      for (int spin = 0; spin < 1000 && !served; ++spin) {
        kv->run_once();
        served = probe.try_read_reply(reply) == 1;
      }
    }
  }
  if (!served) {
    rep.error("kv: restarted minikv did not serve");
    return;
  }
  rep.restart_s.push_back(seconds_between(r0, Clock::now()));
  w.replay.add(start_span);
  w.replayed_records += kv->aof_records_replayed();
  // Acked implies durable, and replay keeps the last acked write per key.
  std::uint64_t missing = 0, stale = 0;
  audit_kv(*kv, acked, missing, stale);
  if (missing > 0 || stale > 0) {
    rep.error("kv: after restart missing=" + std::to_string(missing) +
              " stale=" + std::to_string(stale));
    rep.failed += missing + stale;
  }
}

void run_kv_workload(std::uint64_t seed, double seconds, bool trace,
                     RunReport& rep) {
  for (int m = 0; m < (trace ? 2 : 1); ++m)
    rep.windows.push_back(std::make_unique<Window>(
        m == 1, kMaxRounds * kSlicesPerRound, false));
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < (trace ? 2 : 1) * kMaxRounds; ++round) {
    const bool traced = trace && round % 2 == 1;
    if (round >= (trace ? 2 : 1) &&
        seconds_between(start, Clock::now()) >= seconds)
      break;
    kv_round(split_seed(seed, 1000 + static_cast<std::uint64_t>(round)),
             rep.window(traced), rep);
    if (!rep.errors.empty()) return;
  }
}

// --- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const RunReport& rep) {
  const Window& w = *rep.windows.front();
  return {
      {"ops_per_s", best_share(w.slice_ops_per_s, true), "1/s"},
      {"latency_p50_us", best_share(w.slice_p50_us, false), "us"},
      {"latency_p99_us", best_share(w.slice_p99_us, false), "us"},
      {"restart_s", best_share(rep.restart_s, false), "s"},
      {"setup_s", median(rep.setup_s), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

std::vector<Metric> per_layer(const RunReport& rep) {
  const Window& plain = *rep.windows.front();
  const Window& w = *rep.windows.back();
  const Counters& d = w.delta;
  const double reqs = static_cast<double>(w.completed);
  const double checkpoints =
      get(d, "tx.htm") + get(d, "tx.stm") + get(d, "tx.unprotected");
  const double htm_aborts =
      get(d, "htm.aborts.capacity") + get(d, "htm.aborts.conflict") +
      get(d, "htm.aborts.interrupt") + get(d, "htm.aborts.explicit");
  const double faulty = static_cast<double>(w.faulty);
  const double in_program = (w.run_once.ns + w.client.ns) / 1e9;
  const double writes = static_cast<double>(w.acked_sets);
  const double traced_ops = best_share(w.slice_ops_per_s, true);
  return {
      {"workload.client_share",
       w.wall_s > 0 ? std::max(0.0, 1.0 - in_program / w.wall_s)
                           : 0.0,
       "share"},
      {"workload.ops_per_s_traced", traced_ops, "1/s"},
      {"workload.tracing_overhead_ops_per_s",
       best_share(plain.slice_ops_per_s, true) - traced_ops, "1/s"},
      {"apps.run_once_us", w.run_once.mean_us(), "us"},
      {"apps.requests_per_pass",
       ratio(reqs, static_cast<double>(w.run_once.calls)), "req/pass"},
      {"apps.replay_us_per_record",
       ratio(w.replay.ns / 1000.0, static_cast<double>(w.replayed_records)),
       "us"},
      {"core.gates_per_request", ratio(get(d, "gate.calls"), reqs),
       "count/req"},
      {"core.checkpoints_per_request", ratio(checkpoints, reqs), "count/req"},
      {"core.coalesced_share",
       ratio(get(d, "tx.coalesced"), get(d, "gate.calls")), "share"},
      {"core.snapshot_bytes_per_request",
       ratio(get(d, "snapshot.bytes_copied"), reqs), "B/req"},
      {"core.htm_share", ratio(get(d, "tx.htm"), checkpoints), "share"},
      {"core.htm_abort_share", ratio(htm_aborts, get(d, "htm.begun")),
       "share"},
      {"core.policy_demotions", rep.policy_demotions, "count"},
      {"core.crashes_per_faulty_request",
       ratio(get(d, "recovery.crashes"), faulty), "count/req"},
      {"core.retries_per_faulty_request",
       ratio(get(d, "recovery.retries"), faulty), "count/req"},
      {"core.diversions_per_faulty_request",
       ratio(get(d, "recovery.diversions"), faulty), "count/req"},
      {"core.signals_caught", ratio(get(d, "recovery.signals_caught"), faulty),
       "count/req"},
      {"core.recovery_p50_us", percentile(w.recovery_us, 50), "us"},
      {"core.recovery_p99_us", percentile(w.recovery_us, 99), "us"},
      {"core.recovered_p99_us", best_share(w.slice_recovered_p99_us, false),
       "us"},
      {"mem.stm_stores_per_request", ratio(get(d, "stm.stores"), reqs),
       "count/req"},
      {"mem.stores_elided_share",
       ratio(get(d, "stm.stores_elided"), get(d, "stm.stores")), "share"},
      {"mem.undo_bytes_per_request", ratio(get(d, "stm.bytes_logged"), reqs),
       "B/req"},
      {"mem.htm_lines_per_request", ratio(get(d, "htm.lines_dirtied"), reqs),
       "count/req"},
      {"env.syscalls_per_request", ratio(get(d, "env.syscalls"), reqs),
       "count/req"},
      {"env.heap_allocs_per_request", ratio(get(d, "env.heap_allocs"), reqs),
       "count/req"},
      {"env.client_call_us", w.client.mean_us(), "us"},
      {"vfs.barriers_per_write", ratio(get(d, "vfs.barriers"), writes),
       "count/write"},
      {"vfs.bytes_synced_per_write", ratio(get(d, "vfs.bytes_synced"), writes),
       "B/write"},
      {"vfs.acks_per_group_commit",
       ratio(get(d, "persist.acks_deferred"), get(d, "persist.group_commits")),
       "count"},
  };
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

void print_json(bool correct, const RunReport& rep,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(rep.attempted, 1)),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: firbench --workload http-static|http-faults|kv-mixed "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(v, "0") != 0;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !(seconds > 0)) return usage();

  RunReport rep;
  if (workload == "http-static" || workload == "http-faults") {
    run_http_workload(workload == "http-faults", seed, seconds, trace, rep);
  } else if (workload == "kv-mixed") {
    run_kv_workload(seed, seconds, trace, rep);
  } else {
    return usage();
  }
  for (auto& w : rep.windows) w->finish();
  for (const auto& w : rep.windows)
    if (w->slice_ops_per_s.empty()) rep.error("a window measured nothing");
  if (rep.restart_s.empty()) rep.error("no restart completed");
  const bool correct = rep.errors.empty() && rep.failed == 0;
  for (const std::string& e : rep.errors)
    std::fprintf(stderr, "firbench %s: %s\n", workload.c_str(), e.c_str());
  if (rep.windows.empty()) return 1;

  // Human-readable lines first; the last stdout line is the JSON result.
  const Window& w = *rep.windows.front();
  std::printf("workload %s seed %llu seconds %g trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  std::printf("  %llu requests measured over %zu slices; ops and latency "
              "are best-2%% slice figures, restart the best 2%% of %zu "
              "samples, set-up the median of %zu\n",
              static_cast<unsigned long long>(w.completed),
              w.slice_ops_per_s.size(), rep.restart_s.size(),
              rep.setup_s.size());
  print_metrics(end_to_end(rep));
  if (w.faulty > 0)
    std::printf("  %-36s %14.4f us (%llu requests took the recovery path)\n",
                "recovered_p99_us",
                best_share(w.slice_recovered_p99_us, false),
                static_cast<unsigned long long>(w.faulty));
  std::printf("  %-36s %14llu\n  %-36s %14llu\n", "ops_attempted",
              static_cast<unsigned long long>(rep.attempted), "ops_failed",
              static_cast<unsigned long long>(rep.failed));
  std::printf("  per-slice ops_per_s:");
  for (double v : w.slice_ops_per_s) std::printf(" %.0f", v);
  std::printf("\n");
  std::vector<Metric> metrics = end_to_end(rep);
  if (trace) {
    metrics = per_layer(rep);
    print_metrics(metrics);
  }
  print_json(correct, rep, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fir::perfbench

int main(int argc, char** argv) {
  return fir::perfbench::main_impl(argc, argv);
}
