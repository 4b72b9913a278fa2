// The load generator of the serving benchmark, which also runs it end to end.
//
//   servebench_load --workload score_unique|score_hot|page_feed --seed N
//                   --seconds S --trace 0|1 --server BIN --workdir DIR
//                   [--router-threads N]
//
// One run: build the catalog and train RAPID from the seed (input
// preparation, untimed), save the snapshot, launch the server process
// several times to time its set-up, then load the last one over loopback
// on 4 connections from this single thread:
//   warm    the workload's fixed quality set, closed loop (its answers give
//           expected_clicks, identical in every run of one seed);
//   open    a fixed offered rate for S/2 seconds, latency timed from each
//           frame's due send time, server CPU read around the phase;
//   closed  a fixed pipelining window per connection for S/2 seconds.
// Every answer is then checked against a reference computed here from the
// same snapshot. The last line of stdout is the JSON result; with
// --trace 1 it carries the per-layer metrics instead of the end-to-end
// ones, and the spans are written to DIR.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "click/dcm.h"
#include "click/page_dcm.h"
#include "net/client.h"
#include "net/codec.h"
#include "nn/matrix.h"
#include "page/page.h"
#include "serve/snapshot.h"
#include "trace.h"
#include "workload.h"

extern char** environ;

namespace servebench {
namespace {

using rapid::data::Dataset;
using rapid::data::ImpressionList;
using rapid::data::PageSession;
using rapid::net::FrameType;

// Load shape. Offered rates sit well below the capacity measured on the
// 4-core reference host (README), so the open loop builds no backlog.
constexpr int kConnections = 4;
constexpr int kScoreWindow = 8;  // Frames in flight per connection.
constexpr int kPageWindow = 2;   // Pages in flight per connection.
constexpr double kUniqueRate = 1000.0;  // Lists per second.
constexpr double kHotRate = 3000.0;     // Lists per second.
constexpr double kPageRate = 300.0;     // Pages per second.
constexpr int kUniqueQuality = 2048;    // Lists in the quality set.
constexpr int kPageQuality = 512;       // Pages in the quality set.
constexpr int kSetupLaunches = 11;
// Server processes a run measures, one after another, each for an equal
// slice of the open and closed phases. The same build settles into
// different per-process CPU levels (about 80 vs 100 us per list on
// score_hot), so a run pools several processes instead of drawing one.
constexpr int kInstances = 6;
// Each timed phase is cut into windows of this length and reports the
// quartile of its windows on the "better" side: the lower quartile of a
// time, the upper quartile of a rate. Interference from other tenants of a
// shared host (steal, cache and memory contention) only ever slows a
// window, so that quartile tracks the program rather than its neighbours,
// and a burst spoils some windows instead of the run.
constexpr double kWindowSeconds = 0.5;
// Base pools the unique and page streams cycle through (see ListAt).
constexpr int kUniquePool = 16384;
constexpr int kPagePool = 2048;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Die(const std::string& message) {
  std::fprintf(stderr, "servebench_load: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------- host ---

struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (int i = 0; i < 8 && in; ++i) {
    uint64_t v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// ------------------------------------------------------ server process ---

// One servebench_server child: stdin is its control channel, stdout
// carries the ready line and control answers. The destructor stops the
// child and waits for it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Launch(const std::string& binary, const std::string& snapshot,
              int router_threads) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) return false;
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    const std::string threads_arg = std::to_string(router_threads);
    std::vector<const char*> argv = {binary.c_str(), "--snapshot",
                                     snapshot.c_str()};
    if (router_threads > 0) {
      argv.push_back("--router-threads");
      argv.push_back(threads_arg.c_str());
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               const_cast<char* const*>(argv.data()),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    control_ = to_child[1];
    answers_ = fdopen(from_child[0], "r");
    if (rc != 0) {
      pid_ = -1;
      return false;
    }
    return answers_ != nullptr;
  }

  /// Waits for "ready <port> <backend>".
  bool WaitReady(int timeout_ms, uint16_t* port, std::string* backend) {
    pollfd pfd{fileno(answers_), POLLIN, 0};
    if (poll(&pfd, 1, timeout_ms) <= 0) return false;
    char line[256];
    if (std::fgets(line, sizeof(line), answers_) == nullptr) return false;
    unsigned p = 0;
    char name[64] = {0};
    if (std::sscanf(line, "ready %u %63s", &p, name) != 2) return false;
    *port = static_cast<uint16_t>(p);
    *backend = name;
    return true;
  }

  /// Sends a control command ("cpu", "rss") and returns its number, or -1.
  int64_t Query(const char* command) {
    const std::string line = std::string(command) + "\n";
    if (write(control_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      return -1;
    }
    char answer[128];
    if (std::fgets(answer, sizeof(answer), answers_) == nullptr) return -1;
    char word[16];
    long long value = -1;
    if (std::sscanf(answer, "%15s %lld", word, &value) != 2) return -1;
    return std::strcmp(word, command) == 0 ? value : -1;
  }

  /// Graceful stop; a child that does not exit within 10 s is killed.
  /// Returns true when the child exited with status 0.
  bool Stop() {
    if (control_ >= 0) {
      const char quit[] = "quit\n";
      [[maybe_unused]] const ssize_t n = write(control_, quit, 5);
      close(control_);
      control_ = -1;
    }
    bool clean = true;
    if (pid_ > 0) {
      int status = 0;
      pid_t done = 0;
      for (int i = 0; i < 1000 && done == 0; ++i) {
        done = waitpid(pid_, &status, WNOHANG);
        if (done == 0) usleep(10000);
      }
      if (done == 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        clean = false;
      } else {
        clean = done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      pid_ = -1;
    }
    if (answers_ != nullptr) {
      std::fclose(answers_);
      answers_ = nullptr;
    }
    return clean;
  }

 private:
  pid_t pid_ = -1;
  int control_ = -1;
  std::FILE* answers_ = nullptr;
};

// ------------------------------------------------------------ the load ---

enum class Kind : uint8_t { kScore, kPage, kLoad, kStats };
enum Phase : uint8_t { kWarm, kOpen, kClosed, kProbe };

struct Op {
  Kind kind = Kind::kScore;
  Phase phase = kWarm;
  int conn = 0;
  int32_t index = 0;  // List, key or page index; reply slot for admin ops.
  int32_t reply = -1;
  int32_t window = -1;  // Open-loop window of a data frame.
  uint8_t instance = 0;  // Which measured server process answered.
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  bool answered = false;
  bool error = false;
};

struct Conn {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
  int inflight = 0;  // Score/page frames awaiting an answer.
};

struct Args {
  Workload workload = Workload::kScoreUnique;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string workdir;
  int router_threads = 0;
};

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args), tracer_(args.trace) {}

  int Run();

 private:
  // Inputs.
  void Prepare();
  // Inputs by op index. score_hot indexes its key set. The other two
  // streams cycle a base pool; each further cycle shifts every user id by
  // one, so no (user, candidates) pair repeats within kNumUsers cycles.
  ImpressionList ListAt(int32_t index) const;
  PageSession PageAt(int32_t index) const;
  int32_t NextIndex(Phase phase);
  int ListsPerOp() const {
    return args_.workload == Workload::kPageFeed ? kListsPerPage : 1;
  }

  // Server.
  /// Launches `proc` and times it until it answers its first frame.
  void Launch(ServerProcess& proc);
  /// One measured server process: warm, open and closed slices, checked
  /// delivery; the last one stays up for the probes and the checks.
  void RunInstance();
  void Connect();
  void Disconnect();

  // Wire.
  uint64_t SendData(int conn, Phase phase, int64_t due_ns);
  uint64_t SendAdmin(Kind kind,
                     rapid::net::StatsFormat format =
                         rapid::net::StatsFormat::kBinary);
  void Flush(Conn& conn);
  /// Polls until `deadline_ns` (or one readiness event) and handles every
  /// complete frame that arrived.
  void Pump(int64_t deadline_ns);
  void HandleFrame(int conn, rapid::net::Frame frame, int64_t now);
  void Drain();
  rapid::serve::RouterStats Scrape();

  // Phases.
  void RunWarm();
  void RunOpen();
  void RunClosed();
  void RunProbes();
  void Refill(int conn);

  // Afterwards.
  void CheckAnswers();
  /// The model stamp every answer of server process `instance` must carry.
  Stamp StampFor(int instance) const {
    Stamp stamp;
    stamp.model_name = model_name_;
    stamp.min_version = initial_version_[instance];
    stamp.max_version = initial_version_[instance] + publishes_[instance];
    return stamp;
  }
  void MeasureLayers();

  Args args_;
  Tracer tracer_;
  Dataset data_;
  std::unique_ptr<rapid::rerank::NeuralReranker> reference_;
  std::string snapshot_;
  std::string backend_;
  std::string model_name_;

  std::vector<ImpressionList> lists_;      // score_unique stream.
  std::vector<ImpressionList> hot_keys_;   // score_hot key set.
  std::vector<PageSession> pages_;         // page_feed stream.
  std::vector<double> zipf_cdf_;
  std::mt19937_64 zipf_rng_;
  int32_t cursor_ = 0;
  int32_t warm_cursor_ = 0;
  int32_t warm_size_ = 0;

  ServerProcess server_;
  uint16_t port_ = 0;
  std::vector<Conn> conns_;
  std::vector<Op> ops_;  // Indexed by request id - 1.
  std::vector<rapid::net::WireResponse> score_replies_;
  std::vector<rapid::net::WirePageResponse> page_replies_;
  std::vector<rapid::net::WireStatsResponse> stats_replies_;
  uint64_t pending_admin_ = 0;

  Phase refill_phase_ = kWarm;
  bool refill_ = false;
  int64_t refill_until_ns_ = 0;
  int inflight_window_ = kScoreWindow;  // Closed-loop frames per connection.
  uint64_t data_frames_since_publish_ = 0;
  int instance_ = 0;
  double slice_seconds_ = 1.0;  // Each instance's share of a phase.
  int32_t open_window_base_ = 0;
  std::vector<uint64_t> initial_version_;  // Per instance.
  std::vector<uint64_t> publishes_;        // Per instance.
  int trace_phase_ = -1;

  // Measurements.
  std::vector<double> setup_s_;
  std::vector<double> open_window_cpu_us_;  // Server CPU per list.
  int64_t max_lateness_ns_ = 0;
  int64_t late_frames_ = 0;  // Open-loop frames sent over 1 ms late.
  std::vector<double> closed_window_rate_;   // Lists per second.
  // Server counters summed over the instances' open and closed phases.
  struct LoadDelta {
    uint64_t requests = 0, batches = 0, batched_lists = 0;
    uint64_t arena_allocs = 0, heap_allocs = 0;
    uint64_t hits = 0, misses = 0, bytes = 0;
    int queue_depth_max = 0;
  };
  LoadDelta delta_;
  int64_t peak_rss_kb_ = 0;
  bool servers_clean_ = true;
  CpuTimes cpu_start_;

  // Results.
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  bool properties_ok_ = true;
  double expected_clicks_ = 0.0;
  double initial_clicks_ = 0.0;
  double independent_utility_ = 0.0;
  std::map<std::string, std::pair<double, const char*>> metrics_;
};

void Bench::Prepare() {
  data_ = MakeCatalog();
  {
    const std::unique_ptr<rapid::core::RapidReranker> model = TrainModel(data_);
    snapshot_ = args_.workdir + "/model-" + std::to_string(getpid()) +
                ".rsnp";
    if (!rapid::serve::Snapshot::Save(snapshot_, *model, data_)) {
      Die("cannot write " + snapshot_);
    }
  }
  // The reference model: loaded from the same snapshot the server loads.
  reference_ = rapid::serve::Snapshot::LoadAny(snapshot_, data_);
  if (reference_ == nullptr) Die("cannot reload " + snapshot_);
  model_name_ = reference_->name();

  switch (args_.workload) {
    case Workload::kScoreUnique: {
      lists_ = MakeLists(data_, args_.seed, 1, kUniquePool);
      warm_size_ = kUniqueQuality;
      inflight_window_ = kScoreWindow;
      break;
    }
    case Workload::kScoreHot: {
      hot_keys_ = MakeLists(data_, args_.seed, 2, kHotKeys);
      zipf_cdf_.resize(kHotKeys);
      double sum = 0.0;
      for (int r = 0; r < kHotKeys; ++r) {
        sum += 1.0 / std::pow(r + 1.0, kZipfExponent);
        zipf_cdf_[r] = sum;
      }
      for (double& c : zipf_cdf_) c /= sum;
      zipf_rng_.seed(Mix(args_.seed, 4));
      warm_size_ = kHotKeys;
      inflight_window_ = kScoreWindow;
      break;
    }
    case Workload::kPageFeed: {
      pages_ = MakePages(data_, args_.seed, 1, kPagePool);
      warm_size_ = kPageQuality;
      inflight_window_ = kPageWindow;
      break;
    }
  }
  cursor_ = warm_size_;
}

ImpressionList Bench::ListAt(int32_t index) const {
  if (args_.workload == Workload::kScoreHot) return hot_keys_[index];
  const int32_t n = static_cast<int32_t>(lists_.size());
  ImpressionList list = lists_[index % n];
  list.user_id = (list.user_id + index / n) % kNumUsers;
  return list;
}

PageSession Bench::PageAt(int32_t index) const {
  const int32_t n = static_cast<int32_t>(pages_.size());
  PageSession page = pages_[index % n];
  page.user_id = (page.user_id + index / n) % kNumUsers;
  page.diversity_budget = data_.user(page.user_id).diversity_appetite *
                          static_cast<float>(kListsPerPage);
  for (ImpressionList& list : page.lists) list.user_id = page.user_id;
  return page;
}

int32_t Bench::NextIndex(Phase phase) {
  if (phase == kWarm) return warm_cursor_++;
  if (args_.workload == Workload::kScoreHot) {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(
        zipf_rng_);
    return static_cast<int32_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end() - 1, u) -
        zipf_cdf_.begin());
  }
  return cursor_++;
}

void Bench::Launch(ServerProcess& proc) {
  const int64_t start = NowNs();
  if (!proc.Launch(args_.server, snapshot_, args_.router_threads)) {
    Die("cannot launch " + args_.server);
  }
  if (!proc.WaitReady(60000, &port_, &backend_)) {
    Die("server did not become ready");
  }
  rapid::net::Client client;
  rapid::serve::RouterStats stats;
  if (!client.Connect("127.0.0.1", port_) || !client.GetStats(&stats, 30000)) {
    Die("server did not answer its first frame");
  }
  setup_s_.push_back(static_cast<double>(NowNs() - start) / 1e9);
  if (stats.slots.size() != 1) Die("server has no model slot");
  if (&proc == &server_) {
    initial_version_.push_back(stats.slots[0].version);
    publishes_.push_back(0);
  }
}

void Bench::RunInstance() {
  Launch(server_);
  Connect();
  warm_cursor_ = 0;
  data_frames_since_publish_ = 0;
  RunWarm();
  const rapid::serve::RouterStats before = Scrape();
  const size_t first = ops_.size();
  RunOpen();
  RunClosed();
  uint64_t sent = 0;
  for (size_t i = first; i < ops_.size(); ++i) {
    if (ops_[i].kind == Kind::kScore || ops_[i].kind == Kind::kPage) ++sent;
  }
  const rapid::serve::RouterStats after = Scrape();
  uint64_t answered = 0;
  for (size_t i = first; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    if ((op.kind == Kind::kScore || op.kind == Kind::kPage) && op.answered) {
      ++answered;
    }
  }
  // The server parsed exactly the score and page frames sent in the open
  // and closed phases, the client got an answer to each, and the server
  // dropped none.
  const std::string delivery =
      CheckDelivery(sent, after.net.frames_in - before.net.frames_in,
                    answered, after.net.dropped_responses);
  if (!delivery.empty()) {
    properties_ok_ = false;
    failures_.push_back(delivery);
  }
  const rapid::serve::ServingStats& a = before.total;
  const rapid::serve::ServingStats& b = after.total;
  delta_.requests += b.requests - a.requests;
  delta_.batches += b.batches - a.batches;
  delta_.batched_lists += b.batched_lists - a.batched_lists;
  delta_.arena_allocs += b.arena_allocs - a.arena_allocs;
  delta_.heap_allocs += b.arena_heap_allocs - a.arena_heap_allocs;
  delta_.hits += after.cache.hits - before.cache.hits;
  delta_.misses += after.cache.misses - before.cache.misses;
  delta_.bytes += after.net.bytes_in - before.net.bytes_in +
                  after.net.bytes_out - before.net.bytes_out;
  delta_.queue_depth_max = std::max(delta_.queue_depth_max, b.max_queue_depth);
  peak_rss_kb_ = std::max(peak_rss_kb_, server_.Query("rss"));
}

void Bench::Connect() {
  conns_.assign(kConnections, Conn{});
  for (Conn& conn : conns_) {
    conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (conn.fd < 0 ||
        connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      Die("cannot connect to the server");
    }
    const int one = 1;
    setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(conn.fd, F_SETFL, fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  }
}

void Bench::Disconnect() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
    conn.fd = -1;
  }
}

uint64_t Bench::SendData(int conn_index, Phase phase, int64_t due_ns) {
  // score_hot republishes ahead of every kRepublishEvery-th frame of the
  // open and closed phases, so each cycle starts with a cold cache.
  if (args_.workload == Workload::kScoreHot && phase != kWarm &&
      data_frames_since_publish_++ % kRepublishEvery == 0) {
    SendAdmin(Kind::kLoad);
  }
  Conn& conn = conns_[conn_index];
  Op op;
  op.phase = phase;
  op.instance = static_cast<uint8_t>(instance_);
  op.conn = conn_index;
  op.index = NextIndex(phase);
  op.due_ns = due_ns;
  ops_.push_back(op);
  const uint64_t id = ops_.size();
  if (args_.workload == Workload::kPageFeed) {
    const PageSession page = PageAt(op.index);
    rapid::net::WirePageRequest request;
    request.request_id = id;
    request.slot = kSlot;
    request.user_id = page.user_id;
    request.diversity_budget = page.diversity_budget;
    request.joint = 1;
    request.top_k = kPageTopK;
    request.lists = page.lists;
    ops_.back().kind = Kind::kPage;
    rapid::net::EncodePageRequest(request, &conn.out);
  } else {
    rapid::net::WireRequest request;
    request.request_id = id;
    request.slot = kSlot;
    request.list = ListAt(op.index);
    ops_.back().kind = Kind::kScore;
    rapid::net::EncodeScoreRequest(request, &conn.out);
  }
  ++conn.inflight;
  ops_.back().sent_ns = NowNs();
  Flush(conn);
  return id;
}

uint64_t Bench::SendAdmin(Kind kind, rapid::net::StatsFormat format) {
  Conn& conn = conns_[0];
  Op op;
  op.kind = kind;
  op.phase = refill_phase_;
  op.instance = static_cast<uint8_t>(instance_);
  ops_.push_back(op);
  const uint64_t id = ops_.size();
  if (kind == Kind::kLoad) {
    rapid::net::WireLoadRequest request;
    request.request_id = id;
    request.slot = kSlot;
    request.path = snapshot_;
    rapid::net::EncodeLoadRequest(request, &conn.out);
    ++publishes_[instance_];
  } else {
    rapid::net::WireStatsRequest request;
    request.request_id = id;
    request.format = format;
    rapid::net::EncodeStatsRequest(request, &conn.out);
  }
  ++pending_admin_;
  ops_.back().due_ns = ops_.back().sent_ns = NowNs();
  Flush(conn);
  return id;
}

void Bench::Flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_off,
                           conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      return;
    } else {
      Die("send failed");
    }
  }
  conn.out.clear();
  conn.out_off = 0;
}

void Bench::Pump(int64_t deadline_ns) {
  pollfd fds[kConnections];
  for (int i = 0; i < kConnections; ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = POLLIN;
    if (conns_[i].out_off < conns_[i].out.size()) fds[i].events |= POLLOUT;
    fds[i].revents = 0;
  }
  const int64_t wait = std::max<int64_t>(0, deadline_ns - NowNs());
  timespec timeout{static_cast<time_t>(wait / 1000000000),
                   static_cast<long>(wait % 1000000000)};
  const int ready = ppoll(fds, kConnections, &timeout, nullptr);
  if (ready <= 0) return;
  const int64_t now = NowNs();
  for (int i = 0; i < kConnections; ++i) {
    Conn& conn = conns_[i];
    if (fds[i].revents & POLLOUT) Flush(conn);
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    uint8_t buffer[65536];
    for (;;) {
      const ssize_t n = recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        conn.in.insert(conn.in.end(), buffer, buffer + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
      Die("the server closed a connection");
    }
    size_t offset = 0;
    for (;;) {
      rapid::net::Frame frame;
      size_t consumed = 0;
      const rapid::net::DecodeStatus status = rapid::net::ExtractFrame(
          conn.in.data() + offset, conn.in.size() - offset, &consumed,
          &frame);
      if (status == rapid::net::DecodeStatus::kNeedMore) break;
      if (status == rapid::net::DecodeStatus::kError) {
        Die("undecodable frame from the server");
      }
      offset += consumed;
      HandleFrame(i, std::move(frame), now);
    }
    conn.in.erase(conn.in.begin(), conn.in.begin() + offset);
  }
}

void Bench::HandleFrame(int conn, rapid::net::Frame frame, int64_t now) {
  const uint64_t id = frame.header.request_id;
  if (id == 0 || id > ops_.size() || ops_[id - 1].answered) {
    Die("answer for an unknown request id");
  }
  Op& op = ops_[id - 1];
  op.answered = true;
  op.recv_ns = now;
  bool parsed = false;
  switch (frame.header.type) {
    case FrameType::kScoreResponse: {
      rapid::net::WireResponse response;
      parsed = op.kind == Kind::kScore &&
               rapid::net::ParseScoreResponse(frame, &response);
      op.reply = static_cast<int32_t>(score_replies_.size());
      score_replies_.push_back(std::move(response));
      break;
    }
    case FrameType::kPageResponse: {
      rapid::net::WirePageResponse response;
      parsed = op.kind == Kind::kPage &&
               rapid::net::ParsePageResponse(frame, &response);
      op.reply = static_cast<int32_t>(page_replies_.size());
      page_replies_.push_back(std::move(response));
      break;
    }
    case FrameType::kLoadSlotResponse: {
      rapid::net::WireLoadResponse response;
      parsed = op.kind == Kind::kLoad &&
               rapid::net::ParseLoadResponse(frame, &response) &&
               response.version != 0;
      break;
    }
    case FrameType::kStatsResponse: {
      rapid::net::WireStatsResponse response;
      parsed = op.kind == Kind::kStats &&
               rapid::net::ParseStatsResponse(frame, &response);
      op.reply = static_cast<int32_t>(stats_replies_.size());
      stats_replies_.push_back(std::move(response));
      break;
    }
    default:
      break;
  }
  op.error = !parsed;
  if (op.kind == Kind::kScore || op.kind == Kind::kPage) {
    --conns_[conn].inflight;
    if (tracer_.enabled()) {
      tracer_.Record("net.frame", op.due_ns, now, trace_phase_);
    }
    if (refill_) Refill(conn);
  } else {
    --pending_admin_;
  }
}

void Bench::Refill(int conn) {
  while (conns_[conn].inflight < inflight_window_ &&
         (refill_phase_ != kWarm || warm_cursor_ < warm_size_) &&
         (refill_until_ns_ == 0 || NowNs() < refill_until_ns_)) {
    SendData(conn, refill_phase_, NowNs());
  }
}

void Bench::Drain() {
  refill_ = false;
  const int64_t limit = NowNs() + 60'000'000'000;
  for (;;) {
    int inflight = static_cast<int>(pending_admin_);
    for (const Conn& conn : conns_) inflight += conn.inflight;
    if (inflight == 0) return;
    if (NowNs() > limit) Die("answers missing after 60 s");
    Pump(NowNs() + 50'000'000);
  }
}

// Reads `"key": <n>` from the server's JSON stats text.
uint64_t JsonCounter(const std::string& text, const std::string& key) {
  const size_t at = text.find("\"" + key + "\": ");
  if (at == std::string::npos) Die("stats text lacks " + key);
  return std::strtoull(text.c_str() + at + key.size() + 4, nullptr, 10);
}

rapid::serve::RouterStats Bench::Scrape() {
  const uint64_t binary = SendAdmin(Kind::kStats);
  // The binary stats format does not carry the arena counters; the JSON
  // rendering does (its "total" block comes first).
  const uint64_t json = SendAdmin(Kind::kStats, rapid::net::StatsFormat::kJson);
  Drain();
  const Op& a = ops_[binary - 1];
  const Op& b = ops_[json - 1];
  if (a.error || b.error) Die("stats scrape failed");
  rapid::serve::RouterStats stats = stats_replies_[a.reply].stats;
  const std::string& text = stats_replies_[b.reply].text;
  stats.total.arena_allocs = JsonCounter(text, "arena_allocs");
  stats.total.arena_heap_allocs = JsonCounter(text, "arena_heap_allocs");
  return stats;
}

void Bench::RunWarm() {
  ScopedSpan span(tracer_, "phase.warm");
  trace_phase_ = span.id();
  refill_phase_ = kWarm;
  refill_until_ns_ = 0;
  refill_ = true;
  for (int c = 0; c < kConnections; ++c) Refill(c);
  while (warm_cursor_ < warm_size_) Pump(NowNs() + 50'000'000);
  Drain();
}

void Bench::RunOpen() {
  ScopedSpan span(tracer_, "phase.open");
  trace_phase_ = span.id();
  refill_ = false;
  refill_phase_ = kOpen;
  const double rate = args_.workload == Workload::kScoreUnique ? kUniqueRate
                      : args_.workload == Workload::kScoreHot  ? kHotRate
                                                               : kPageRate;
  // score_hot's windows are its republish cycles, so every window holds
  // one refill; the phase is a whole number of windows.
  const int64_t per_window =
      args_.workload == Workload::kScoreHot
          ? kRepublishEvery
          : std::max<int64_t>(1, static_cast<int64_t>(rate * kWindowSeconds));
  const int64_t frames =
      std::max<int64_t>(1, static_cast<int64_t>(rate * slice_seconds_) /
                               per_window) *
      per_window;
  const double gap_ns = 1e9 / rate;
  // Server CPU at every window boundary and after the drain.
  std::vector<int64_t> cpu_marks = {server_.Query("cpu")};
  const int64_t start = NowNs() + 1'000'000;
  for (int64_t j = 0; j < frames;) {
    const int64_t now = NowNs();
    while (j < frames) {
      const int64_t due = start + static_cast<int64_t>(j * gap_ns);
      if (due > now) break;
      if (j > 0 && j % per_window == 0) cpu_marks.push_back(server_.Query("cpu"));
      SendData(static_cast<int>(j % kConnections), kOpen, due);
      ops_.back().window = open_window_base_ + static_cast<int32_t>(j / per_window);
      const int64_t late = ops_.back().sent_ns - due;
      max_lateness_ns_ = std::max(max_lateness_ns_, late);
      if (late > 1'000'000) ++late_frames_;
      ++j;
    }
    if (j < frames) Pump(start + static_cast<int64_t>(j * gap_ns));
  }
  Drain();
  cpu_marks.push_back(server_.Query("cpu"));
  open_window_base_ += static_cast<int32_t>(frames / per_window);
  for (size_t w = 0; w + 1 < cpu_marks.size(); ++w) {
    if (cpu_marks[w] < 0 || cpu_marks[w + 1] < 0) Die("server CPU query failed");
    open_window_cpu_us_.push_back(Us(cpu_marks[w + 1] - cpu_marks[w]) /
                                  static_cast<double>(per_window * ListsPerOp()));
  }
}

void Bench::RunClosed() {
  ScopedSpan span(tracer_, "phase.closed");
  trace_phase_ = span.id();
  refill_phase_ = kClosed;
  const int64_t start = NowNs();
  const int64_t window_ns = static_cast<int64_t>(kWindowSeconds * 1e9);
  const int windows =
      std::max(1, static_cast<int>(slice_seconds_ / kWindowSeconds + 1e-9));
  const int64_t end = start + windows * window_ns;
  refill_until_ns_ = end;
  refill_ = true;
  const size_t first = ops_.size();
  for (int c = 0; c < kConnections; ++c) Refill(c);
  while (NowNs() < end) Pump(end);
  Drain();
  std::vector<int64_t> lists(windows, 0);
  for (size_t i = first; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    if (op.phase == kClosed &&
        (op.kind == Kind::kScore || op.kind == Kind::kPage) &&
        op.recv_ns < end) {
      lists[(op.recv_ns - start) / window_ns] += ListsPerOp();
    }
  }
  for (const int64_t n : lists) {
    closed_window_rate_.push_back(static_cast<double>(n) / kWindowSeconds);
  }
}

// Traced run only: frames beyond the workload that give the layer metrics
// a workload does not exercise by itself.
void Bench::RunProbes() {
  ScopedSpan span(tracer_, "phase.probe");
  trace_phase_ = span.id();
  refill_phase_ = kProbe;
  if (args_.workload != Workload::kScoreHot) {
    for (int i = 0; i < 5; ++i) {
      SendAdmin(Kind::kLoad);
      Drain();
    }
  }
}

void Bench::CheckAnswers() {
  ScopedSpan span(tracer_, "check");

  const bool pages = args_.workload == Workload::kPageFeed;
  // Reference orders for every list this run served. A page's lists sit
  // at inputs[slot * kListsPerPage ...].
  std::unordered_map<int32_t, int32_t> slot_of;
  std::vector<ImpressionList> inputs;
  std::vector<PageSession> sent_pages;
  for (const Op& op : ops_) {
    if ((op.kind != Kind::kScore && op.kind != Kind::kPage) ||
        slot_of.count(op.index) != 0) {
      continue;
    }
    if (pages) {
      slot_of[op.index] = static_cast<int32_t>(sent_pages.size());
      sent_pages.push_back(PageAt(op.index));
      for (const ImpressionList& list : sent_pages.back().lists) {
        inputs.push_back(list);
      }
    } else {
      slot_of[op.index] = static_cast<int32_t>(inputs.size());
      inputs.push_back(ListAt(op.index));
    }
  }
  std::vector<const ImpressionList*> input_ptrs;
  for (const ImpressionList& list : inputs) input_ptrs.push_back(&list);
  const std::vector<std::vector<int>> reference =
      ReferenceOrders(*reference_, data_, input_ptrs, 4);

  const rapid::click::GroundTruthClickModel dcm(&data_,
                                               rapid::click::DcmConfig{});
  const rapid::click::PageDcm page_dcm(&data_, rapid::click::PageDcmConfig{});
  double served_sum = 0.0, initial_sum = 0.0, independent_sum = 0.0;
  int quality_count = 0;
  for (const Op& op : ops_) {
    std::string error;
    if (!op.answered) {
      error = "unanswered";
    } else if (op.error) {
      error = "error or unparsable answer";
    } else if (op.kind == Kind::kScore) {
      const int32_t slot = slot_of[op.index];
      const ImpressionList& sent = inputs[slot];
      const rapid::net::WireResponse& got = score_replies_[op.reply];
      error = CheckScore(sent, got, reference[slot], StampFor(op.instance));
      if (error.empty() && op.phase == kWarm && op.instance == 0) {
        served_sum += dcm.ExpectedClicks(sent.user_id, got.items, kClickDepth);
        initial_sum +=
            dcm.ExpectedClicks(sent.user_id, sent.items, kClickDepth);
        ++quality_count;
      }
    } else if (op.kind == Kind::kPage) {
      const int32_t slot = slot_of[op.index];
      const PageSession& sent = sent_pages[slot];
      const size_t first = static_cast<size_t>(slot) * kListsPerPage;
      const std::vector<std::vector<int>> orders(
          reference.begin() + first,
          reference.begin() + first + sent.lists.size());
      const rapid::net::WirePageResponse& got = page_replies_[op.reply];
      error = CheckPage(sent, got, ReferencePage(data_, sent, orders, true),
                        StampFor(op.instance));
      if (error.empty() && op.phase == kWarm && op.instance == 0) {
        served_sum += page_dcm.ExpectedPageUtility(sent.user_id, got.lists,
                                                   kPageTopK);
        independent_sum += page_dcm.ExpectedPageUtility(
            sent.user_id, ReferencePage(data_, sent, orders, false).lists,
            kPageTopK);
        ++quality_count;
      }
    }
    if (!error.empty()) {
      ++failed_;
      if (failures_.size() < 5) {
        failures_.push_back("request " + std::to_string(&op - ops_.data() + 1) +
                            ": " + error);
      }
    }
  }
  if (quality_count != warm_size_) {
    properties_ok_ = false;
    failures_.push_back("quality set incomplete");
  }
  expected_clicks_ = served_sum / std::max(1, quality_count);
  initial_clicks_ = initial_sum / std::max(1, quality_count);
  independent_utility_ = independent_sum / std::max(1, quality_count);
  // Pages only report the independent pass's utility beside the joint
  // pass's (the quality record): on this workload the joint pass does not
  // beat it on every seed (README, "Checks"), so it gates nothing.
  const std::string property =
      pages ? "" : CheckBeatsInitial(expected_clicks_, initial_clicks_);
  if (!property.empty()) {
    properties_ok_ = false;
    failures_.push_back(property);
  }
}

void Bench::MeasureLayers() {
  ScopedSpan root(tracer_, "layers");
  auto put = [&](const char* name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  };
  // Server-stamped and client-side timings of the open-loop answers.
  std::vector<double> router_us, overhead_us, hit_us;
  for (const Op& op : ops_) {
    if (op.kind != Kind::kScore && op.kind != Kind::kPage) continue;
    const int64_t server_us = op.kind == Kind::kScore
                                  ? score_replies_[op.reply].server_latency_us
                                  : page_replies_[op.reply].server_latency_us;
    if (op.kind == Kind::kScore && score_replies_[op.reply].cache_hit &&
        op.phase != kWarm) {
      hit_us.push_back(static_cast<double>(server_us));
    }
    if (op.phase != kOpen) continue;
    router_us.push_back(static_cast<double>(server_us));
    overhead_us.push_back(Us(op.recv_ns - op.sent_ns) -
                          static_cast<double>(server_us));
  }
  put("serve.router_p50_us", Median(router_us), "us");
  put("net.overhead_p50_us", Median(overhead_us), "us");

  // Deltas of the server's own counters over the open and closed phases.
  const double lists =
      static_cast<double>(std::max<uint64_t>(1, delta_.requests));
  put("serve.batch_mean",
      delta_.batches == 0 ? 0.0
                          : static_cast<double>(delta_.batched_lists) /
                                static_cast<double>(delta_.batches),
      "lists");
  put("serve.queue_depth_max", delta_.queue_depth_max, "count");
  const uint64_t hits = delta_.hits;
  const uint64_t misses = delta_.misses;
  put("serve.cache_hit_rate",
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses),
      "ratio");
  put("nn.arena_allocs_per_list",
      static_cast<double>(delta_.arena_allocs) / lists, "count");
  put("nn.heap_allocs_per_list",
      static_cast<double>(delta_.heap_allocs) / lists, "count");
  put("net.bytes_per_list", static_cast<double>(delta_.bytes) / lists, "B");

  // Cache hits: the workload's own when it has them, else a fixed probe of
  // single frames that replay lists the server has just answered. Probe
  // answers are checked against the reference like every other answer.
  if (hit_us.size() < 50) {
    ScopedSpan span(tracer_, "probe.cache_hit", root.id());
    hit_us.clear();
    std::vector<ImpressionList> replay;
    for (size_t i = ops_.size(); i-- > 0 && replay.size() < 200;) {
      const Op& op = ops_[i];
      if (op.kind == Kind::kScore) replay.push_back(ListAt(op.index));
      if (op.kind == Kind::kPage) {
        for (const ImpressionList& list : PageAt(op.index).lists) {
          if (replay.size() < 200) replay.push_back(list);
        }
      }
    }
    std::vector<const ImpressionList*> replay_ptrs;
    for (const ImpressionList& list : replay) replay_ptrs.push_back(&list);
    const std::vector<std::vector<int>> reference =
        ReferenceOrders(*reference_, data_, replay_ptrs, 4);
    const Stamp stamp = StampFor(instance_);
    for (size_t r = 0; r < replay.size(); ++r) {
      Op op;
      op.kind = Kind::kScore;
      op.phase = kProbe;
      op.instance = static_cast<uint8_t>(instance_);
      op.sent_ns = NowNs();
      ops_.push_back(op);
      rapid::net::WireRequest request;
      request.request_id = ops_.size();
      request.slot = kSlot;
      request.list = replay[r];
      rapid::net::EncodeScoreRequest(request, &conns_[0].out);
      ++conns_[0].inflight;
      Flush(conns_[0]);
      Drain();
      const Op& done = ops_.back();
      std::string error = done.error ? "unparsable answer" : "";
      if (error.empty()) {
        const rapid::net::WireResponse& reply = score_replies_[done.reply];
        error = CheckScore(replay[r], reply, reference[r], stamp);
        if (reply.cache_hit) {
          hit_us.push_back(static_cast<double>(reply.server_latency_us));
        }
      }
      if (!error.empty()) {
        ++failed_;
        failures_.push_back("cache probe: " + error);
      }
    }
  }
  put("serve.cache_hit_p50_us", Median(hit_us), "us");

  std::vector<double> publish_ms;
  for (const Op& op : ops_) {
    if (op.kind == Kind::kLoad && op.answered) {
      publish_ms.push_back(Ms(op.recv_ns - op.sent_ns));
    }
  }
  put("serve.publish_ms", Median(publish_ms), "ms");

  // In-process timings of each module's public functions on this
  // workload's inputs, with the server idle.
  std::vector<ImpressionList> sample_lists;
  for (const Op& op : ops_) {
    if (op.kind == Kind::kScore && op.phase != kProbe) {
      sample_lists.push_back(ListAt(op.index));
    } else if (op.kind == Kind::kPage) {
      for (const ImpressionList& list : PageAt(op.index).lists) {
        sample_lists.push_back(list);
      }
    }
    if (sample_lists.size() >= 256) break;
  }
  std::vector<const ImpressionList*> sample;
  for (const ImpressionList& list : sample_lists) sample.push_back(&list);
  {
    ScopedSpan span(tracer_, "serve.snapshot_load", root.id());
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const int64_t t = NowNs();
      if (rapid::serve::Snapshot::LoadAny(snapshot_, data_) == nullptr) {
        Die("snapshot reload failed");
      }
      ms.push_back(Ms(NowNs() - t));
    }
    put("serve.snapshot_load_ms", Median(ms), "ms");
  }
  {
    ScopedSpan span(tracer_, "net.codec", root.id());
    // Encode + parse of request and response frames, as the wire sees them.
    std::vector<uint8_t> buffer;
    rapid::net::Frame frame;
    size_t consumed = 0;
    int64_t frames = 0;
    const int64_t t = NowNs();
    for (int round = 0; round < 20; ++round) {
      for (const Op& op : ops_) {
        if (op.kind == Kind::kScore && op.phase != kProbe && op.reply >= 0) {
          rapid::net::WireRequest request;
          request.request_id = 1;
          request.slot = kSlot;
          request.list = ListAt(op.index);
          buffer.clear();
          rapid::net::EncodeScoreRequest(request, &buffer);
          rapid::net::ExtractFrame(buffer.data(), buffer.size(), &consumed,
                                   &frame);
          rapid::net::ParseScoreRequest(frame, &request);
          rapid::net::WireResponse response = score_replies_[op.reply];
          buffer.clear();
          rapid::net::EncodeScoreResponse(response, &buffer);
          rapid::net::ExtractFrame(buffer.data(), buffer.size(), &consumed,
                                   &frame);
          rapid::net::ParseScoreResponse(frame, &response);
        } else if (op.kind == Kind::kPage && op.reply >= 0) {
          const PageSession page = PageAt(op.index);
          rapid::net::WirePageRequest request;
          request.request_id = 1;
          request.slot = kSlot;
          request.user_id = page.user_id;
          request.lists = page.lists;
          buffer.clear();
          rapid::net::EncodePageRequest(request, &buffer);
          rapid::net::ExtractFrame(buffer.data(), buffer.size(), &consumed,
                                   &frame);
          rapid::net::ParsePageRequest(frame, &request);
          rapid::net::WirePageResponse response = page_replies_[op.reply];
          buffer.clear();
          rapid::net::EncodePageResponse(response, &buffer);
          rapid::net::ExtractFrame(buffer.data(), buffer.size(), &consumed,
                                   &frame);
          rapid::net::ParsePageResponse(frame, &response);
        } else {
          continue;
        }
        if (++frames % 256 == 0) break;
      }
    }
    put("net.codec_ns_per_frame",
        static_cast<double>(NowNs() - t) / static_cast<double>(frames),
        "ns");
  }
  auto score_us_per_list = [&](size_t batch, size_t lists_total) {
    std::vector<std::vector<float>> out;
    std::vector<const ImpressionList*> chunk;
    const int64_t t = NowNs();
    for (size_t done = 0; done < lists_total; done += batch) {
      chunk.clear();
      for (size_t i = 0; i < batch; ++i) {
        chunk.push_back(sample[(done + i) % sample.size()]);
      }
      reference_->ScoreBatchInto(data_, chunk, &out);
    }
    return Us(NowNs() - t) / static_cast<double>(lists_total);
  };
  {
    ScopedSpan span(tracer_, "rerank.score_b1", root.id());
    score_us_per_list(1, 16);  // Warm the arena.
    put("rerank.score_us_per_list_b1", score_us_per_list(1, 256), "us");
  }
  {
    ScopedSpan span(tracer_, "rerank.score_b8", root.id());
    put("rerank.score_us_per_list_b8", score_us_per_list(8, 512), "us");
  }
  {
    ScopedSpan span(tracer_, "rerank.scaling_4t", root.id());
    auto throughput = [&](int threads) {
      const size_t per_thread = 256;
      const int64_t t = NowNs();
      std::vector<std::thread> pool;
      for (int k = 0; k < threads; ++k) {
        pool.emplace_back([&] { score_us_per_list(8, per_thread); });
      }
      for (std::thread& thread : pool) thread.join();
      return static_cast<double>(per_thread * threads) /
             (static_cast<double>(NowNs() - t) / 1e9);
    };
    const double one = throughput(1);
    put("rerank.scaling_4t", throughput(4) / one, "x");
  }
  {
    ScopedSpan span(tracer_, "nn.gemm", root.id());
    // The forward's shapes at a batch of 8 lists: the input projection of
    // the (B*L x F) block and one recurrent step of the B rows.
    const int rows = 8 * kListLen;
    const int features = data_.user_feature_dim() + data_.item_feature_dim() +
                         data_.num_topics;
    std::mt19937_64 rng(5);
    const rapid::nn::Matrix x = rapid::nn::Matrix::Randn(rows, features, 1.0f, rng);
    const rapid::nn::Matrix w = rapid::nn::Matrix::Randn(features, 4 * kHiddenDim, 1.0f, rng);
    const rapid::nn::Matrix h = rapid::nn::Matrix::Randn(8, kHiddenDim, 1.0f, rng);
    const rapid::nn::Matrix u = rapid::nn::Matrix::Randn(kHiddenDim, 4 * kHiddenDim, 1.0f, rng);
    rapid::nn::Matrix out1, out2;
    const double flops_per_round =
        2.0 * rows * features * 4 * kHiddenDim +
        2.0 * 8 * kHiddenDim * 4 * kHiddenDim * kListLen;
    const int rounds = 2000;
    const int64_t t = NowNs();
    for (int r = 0; r < rounds; ++r) {
      rapid::nn::Gemm(x, w, &out1);
      for (int step = 0; step < kListLen; ++step) rapid::nn::Gemm(h, u, &out2);
    }
    const double seconds = static_cast<double>(NowNs() - t) / 1e9;
    put("nn.gemm_gflops", flops_per_round * rounds / seconds / 1e9, "GFLOP/s");
  }
  {
    ScopedSpan span(tracer_, "page.pass", root.id());
    const std::vector<PageSession> pages =
        MakePages(data_, args_.seed, 9, 64);
    rapid::page::PageRerankConfig config;
    config.top_k = kPageTopK;
    const rapid::page::PageReranker reranker(data_, config);
    const int64_t t = NowNs();
    const int rounds = 10;
    for (int r = 0; r < rounds; ++r) {
      for (const PageSession& page : pages) {
        std::vector<std::vector<int>> orders;
        std::vector<std::vector<float>> relevance;
        for (const ImpressionList& list : page.lists) {
          orders.push_back(list.items);
          relevance.push_back(
              rapid::page::PageReranker::RankRelevance(list.items.size()));
        }
        reranker.Rerank(orders, relevance, page.diversity_budget);
      }
    }
    put("page.pass_us_per_page",
        Us(NowNs() - t) / static_cast<double>(rounds * pages.size()), "us");
  }
}

int Bench::Run() {
  cpu_start_ = ReadCpuTimes();
  {
    ScopedSpan span(tracer_, "prepare");
    Prepare();
  }
  {
    // Launches that only time the set-up; the measured instances add the
    // remaining samples.
    ScopedSpan span(tracer_, "setup");
    for (int k = 0; k < kSetupLaunches - kInstances; ++k) {
      ServerProcess probe;
      Launch(probe);
      if (!probe.Stop()) servers_clean_ = false;
    }
  }
  slice_seconds_ = args_.seconds / 2.0 / kInstances;
  for (instance_ = 0; instance_ < kInstances; ++instance_) {
    ScopedSpan span(tracer_, "instance");
    RunInstance();
    if (instance_ + 1 == kInstances) break;  // Stays up for what follows.
    Disconnect();
    if (!server_.Stop()) servers_clean_ = false;
  }
  if (args_.trace) RunProbes();
  CheckAnswers();
  if (args_.trace) MeasureLayers();
  peak_rss_kb_ = std::max(peak_rss_kb_, server_.Query("rss"));
  Disconnect();
  if (!server_.Stop()) servers_clean_ = false;
  std::remove(snapshot_.c_str());
  const CpuTimes cpu_end = ReadCpuTimes();

  // Open-loop latency, timed from each frame's due send time: p50 is the
  // lower quartile of the windows' medians; p99 is over the whole phase.
  std::vector<double> latency_us;
  std::vector<std::vector<double>> window_latency_us;
  for (const Op& op : ops_) {
    if (op.window < 0) continue;
    latency_us.push_back(Us(op.recv_ns - op.due_ns));
    if (static_cast<size_t>(op.window) >= window_latency_us.size()) {
      window_latency_us.resize(op.window + 1);
    }
    window_latency_us[op.window].push_back(latency_us.back());
  }
  std::vector<double> window_p50;
  for (const std::vector<double>& window : window_latency_us) {
    window_p50.push_back(Median(window));
  }
  const double p50 = Quantile(window_p50, 0.25);
  const double p99 = Quantile(latency_us, 0.99);
  const double steal =
      cpu_end.total > cpu_start_.total
          ? static_cast<double>(cpu_end.steal - cpu_start_.steal) /
                static_cast<double>(cpu_end.total - cpu_start_.total)
          : 0.0;

  std::printf(
      "{\"host\": {\"cpu_model\": %s, \"nproc\": %ld, \"backend\": %s, "
      "\"compiler\": %s, \"steal_share\": %.4f, "
      "\"max_lateness_us\": %.1f, \"late_frames\": %lld}}\n",
      JsonString(CpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(backend_).c_str(), JsonString(kCompiler).c_str(), steal,
      Us(max_lateness_ns_), static_cast<long long>(late_frames_));
  // Wall-clock figures, reported but not gated: on a shared host they move
  // with other tenants' load far beyond any useful bound (README).
  std::printf("{\"wallclock\": {\"p50_us\": %.3f, \"p99_us\": %.3f, "
              "\"lists_per_s\": %.1f, \"open_samples\": %zu}}\n",
              p50, p99, Quantile(closed_window_rate_, 0.75), latency_us.size());
  // The quality set against its baseline: the initial order for lists,
  // the independent per-list pass for pages.
  std::printf("{\"quality\": {\"served\": %.6f, \"baseline\": %.6f}}\n",
              expected_clicks_,
              args_.workload == Workload::kPageFeed ? independent_utility_
                                                    : initial_clicks_);
  for (const std::string& failure : failures_) {
    std::fprintf(stderr, "servebench_load: FAILED %s\n", failure.c_str());
  }
  if (!servers_clean_) {
    properties_ok_ = false;
    std::fprintf(stderr, "servebench_load: FAILED a server did not exit cleanly\n");
  }

  if (args_.trace) {
    metrics_["trace.p50_us"] = {p50, "us"};
    const std::string path = args_.workdir + "/trace-" +
                             WorkloadName(args_.workload) + ".json";
    if (!tracer_.Write(path)) Die("cannot write " + path);
    std::printf("{\"spans\": %zu, \"trace_file\": %s}\n", tracer_.size(),
                JsonString(path).c_str());
  } else {
    metrics_["setup_s"] = {Quantile(setup_s_, 0.25), "s"};
    metrics_["cpu_us_per_list"] = {Quantile(open_window_cpu_us_, 0.25), "us"};
    metrics_["expected_clicks"] = {expected_clicks_, "clicks"};
    metrics_["peak_rss_mb"] = {static_cast<double>(peak_rss_kb_) / 1024.0,
                               "MB"};
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
              "\"metrics\": {",
              properties_ok_ && failed_ == 0 ? "true" : "false", ops_.size(),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value.first, value.second);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--router-threads") {
      args->router_threads = std::atoi(value);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0 && !args->server.empty() &&
         !args->workdir.empty();
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench_load --workload NAME --seed N --seconds S "
                 "--trace 0|1 --server BIN --workdir DIR "
                 "[--router-threads N]\n");
    return 2;
  }
  servebench::Bench bench(args);
  return bench.Run();
}
