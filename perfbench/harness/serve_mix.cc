// serve_mix: an open-loop, Poisson-arrival request stream against a real
// pscd process at default EngineOptions, over Unix-socket sessions.
//
// Phases of one run:
//  1. set-up, several times: spawn pscd, load every collection, check each
//     once (setup_s per repetition; the last pscd stays up);
//  2. the rate ladder: Poisson arrivals at each rung rate in turn, every
//     request timed from its due time, not from when it was sent;
//  3. saturation: each connection keeps a fixed window of requests in
//     flight; completed requests per second is ops_per_s;
//  4. a quiescent pass comparing every pool query with a cold
//     QuerySystem::AnswerExact over the generator's final collections.
// A traced run adds in-process replays of the stream that time the serve,
// delta, parser, core, consistency, tableau, relational, counting, algebra
// and exec entry points from outside.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"
#include "inputs.h"
#include "psc/core/query_system.h"
#include "psc/delta/delta_script.h"
#include "psc/delta/incremental.h"
#include "psc/obs/json.h"
#include "psc/parser/parser.h"
#include "psc/serve/engine.h"
#include "psc/serve/protocol.h"

extern char** environ;

namespace perfbench {

namespace {

/// Rung rates (requests/s) of the ladder; the reference rung gives the
/// latency metrics. Fixed here and in the README.
constexpr double kRungRates[] = {250, 1000, 2000, 4000};
constexpr size_t kRungs = sizeof(kRungRates) / sizeof(kRungRates[0]);
/// The reference rate is low enough that misses rarely overlap, so its
/// latencies measure service and the socket rather than queueing bursts.
constexpr size_t kReferenceRung = 0;
/// Shares of the run: the reference rung in one segment per set-up pscd
/// but the last (its samples span several server processes), each other
/// rung and then the saturation phase on the last pscd. The rest is left
/// for set-up and the quiescent passes.
constexpr double kReferenceShare = 0.4;
constexpr double kRungShare = 0.1;
constexpr double kSaturationShare = 0.2;
constexpr size_t kSaturationWindow = 8;
constexpr int kSetups = 5;
/// Requests replayed sequentially by the traced run, then sent as a
/// concurrent burst (at most kBurstSeconds) to fill pscd's batch counters.
constexpr size_t kReplayRequests = 600;
constexpr size_t kBurstRequests = 2000;
constexpr double kBurstSeconds = 3;

bool Contains(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

uint64_t FieldUint(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return 0;
  size_t pos = at + needle.size();
  if (pos < text.size() && text[pos] == '"') ++pos;
  return std::strtoull(text.c_str() + pos, nullptr, 10);
}

/// A spawned pscd. The destructor stops it and waits for it, so no run
/// leaves a server behind, on error paths too.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Kill(); }

  bool Start(const std::string& binary, const std::string& socket_path,
             const std::string& metrics_path, const std::string& log_path) {
    ::unlink(socket_path.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<std::string> args = {binary, "--unix", socket_path,
                                     "--metrics-out", metrics_path};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }

  pid_t pid() const { return pid_; }
  bool Alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Waits up to `timeout_s` for a clean exit; returns its exit code, or
  /// -1 after killing a process that did not exit.
  int Wait(double timeout_s) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
    while (pid_ > 0 && NowNs() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Kill();
    return -1;
  }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// One session: a blocking Unix-socket line client.
class LineClient {
 public:
  LineClient() = default;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient() { Close(); }

  bool Connect(const std::string& path, Daemon* daemon) {
    const int64_t deadline = NowNs() + 20'000'000'000;
    while (NowNs() < deadline) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un address{};
      address.sun_family = AF_UNIX;
      std::strncpy(address.sun_path, path.c_str(),
                   sizeof(address.sun_path) - 1);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                    sizeof(address)) == 0) {
        return true;
      }
      Close();
      if (daemon != nullptr && !daemon->Alive()) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }
  std::string& buffer() { return buffer_; }

  bool Send(const std::string& line) {
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Next complete line already buffered, if any.
  bool PopLine(std::string* line) {
    const size_t newline = buffer_.find('\n');
    if (newline == std::string::npos) return false;
    *line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }

  /// Reads whatever is available; false on EOF or error.
  bool Fill() {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  bool ReadLine(std::string* line, double timeout_s) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
    while (!PopLine(line)) {
      pollfd pfd{fd_, POLLIN, 0};
      const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
      if (left_ms <= 0) return false;
      if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) return false;
      if (!Fill()) return false;
    }
    return true;
  }

  bool Call(const std::string& request, std::string* response) {
    return Send(request) && ReadLine(response, 60);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

void Validate(const ServeRequest& request, const std::string& response,
              RunResult* result) {
  ++result->attempted;
  if (!Contains(response, "\"ok\":true")) {
    result->Fail(Contains(response, "admission") || Contains(response, "draining")
                     ? "rejected"
                     : "error_response");
    if (result->errors.size() < 3) {
      result->Error("error response: " + response.substr(0, 300));
    }
    return;
  }
  switch (request.kind) {
    case RequestKind::kAnswer:
      if (Contains(response, "\"truncated\":true")) result->Fail("truncated");
      break;
    case RequestKind::kCheck:
      if (Contains(response, "\"verdict\":\"UNKNOWN\"")) {
        result->Fail("unknown_verdict");
      } else if (!Contains(response, "\"verdict\":\"CONSISTENT\"")) {
        result->Error("a planted collection checked inconsistent: " +
                      response.substr(0, 300));
      }
      break;
    case RequestKind::kWrite:
      if (FieldUint(response, "inserted") + FieldUint(response, "retracted") <
          1) {
        result->Fail("noop_write");
      }
      break;
  }
}

struct Record {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
};

struct Phase {
  std::vector<ServeRequest> requests;
  std::vector<std::string> lines;
  std::vector<Record> records;
};

/// Drives every session from one thread (ppoll over all sockets), so the
/// load generator takes one core and leaves the rest to pscd. Open loop
/// (`window` = 0): each request is sent at its due time, whatever is
/// outstanding. Saturation (`window` > 0): each session keeps up to
/// `window` requests in flight until `stop_ns`. A write waits for the
/// previous write of its collection to be acknowledged, so pscd applies
/// writes in generation order. A stall (`stall_ns` > 0) sleeps the whole
/// generator once at `stall_at_ns`.
void DriveSessions(std::vector<std::unique_ptr<LineClient>>& clients,
                   Phase* phase, size_t window, int64_t stop_ns,
                   int64_t stall_at_ns, int64_t stall_ns, RunResult* result) {
  const size_t sessions = clients.size();
  std::vector<std::vector<size_t>> mine(sessions);
  for (size_t i = 0; i < phase->requests.size(); ++i) {
    mine[phase->requests[i].connection].push_back(i);
  }
  std::vector<size_t> next(sessions, 0);
  std::vector<size_t> outstanding(sessions, 0);
  size_t in_flight = 0;
  std::vector<bool> write_pending(64, false);
  bool stalled = stall_ns <= 0;
  int64_t last_progress = NowNs();
  std::vector<pollfd> fds(sessions);
  std::string line;
  for (;;) {
    const int64_t now = NowNs();
    if (!stalled && now >= stall_at_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
      stalled = true;
      continue;
    }
    bool more = false;
    bool sent = false;
    int64_t wait_ns = 200'000'000;
    for (size_t c = 0; c < sessions; ++c) {
      if (next[c] >= mine[c].size() || (window > 0 && now >= stop_ns)) continue;
      more = true;
      const size_t index = mine[c][next[c]];
      const ServeRequest& request = phase->requests[index];
      if ((request.kind == RequestKind::kWrite &&
           write_pending[request.collection]) ||
          (window > 0 && outstanding[c] >= window)) {
        continue;  // an acknowledgement will wake the poll below
      }
      Record& record = phase->records[index];
      if (window > 0) record.due_ns = now;
      if (record.due_ns > now) {
        wait_ns = std::min(wait_ns, record.due_ns - now);
        continue;
      }
      record.send_ns = now;
      if (!clients[c]->Send(phase->lines[index])) {
        result->Error("send to pscd failed");
        return;
      }
      if (request.kind == RequestKind::kWrite) {
        write_pending[request.collection] = true;
      }
      ++next[c];
      ++outstanding[c];
      ++in_flight;
      sent = true;
    }
    if (!more && in_flight == 0) break;
    if (sent) continue;  // more may be due already
    for (size_t c = 0; c < sessions; ++c) fds[c] = {clients[c]->fd(), POLLIN, 0};
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), sessions, &timeout, nullptr) <= 0) {
      if (in_flight > 0 && NowNs() - last_progress > 60'000'000'000) {
        result->Error("no response from pscd for 60 s");
        return;
      }
      continue;
    }
    const int64_t received = NowNs();
    last_progress = received;
    for (size_t c = 0; c < sessions; ++c) {
      if (fds[c].revents == 0) continue;
      if (!clients[c]->Fill()) {
        result->Error("pscd closed a session mid-run");
        return;
      }
      while (clients[c]->PopLine(&line)) {
        const size_t index = static_cast<size_t>(FieldUint(line, "id"));
        if (index == 0 || index > phase->requests.size()) {
          result->Error("response with unknown id: " + line.substr(0, 200));
          continue;
        }
        const ServeRequest& request = phase->requests[index - 1];
        phase->records[index - 1].recv_ns = received;
        --outstanding[c];
        --in_flight;
        if (request.kind == RequestKind::kWrite) {
          write_pending[request.collection] = false;
        }
        Validate(request, line, result);
      }
    }
  }
}

/// Runs one phase over the sessions and returns the wall time from the
/// phase start to its last response.
double RunPhase(std::vector<std::unique_ptr<LineClient>>& clients,
                Phase* phase, size_t window, double duration_s,
                const Options& options, bool allow_stall, RunResult* result) {
  const int64_t start = NowNs() + 1'000'000;
  phase->records.assign(phase->requests.size(), Record{});
  for (size_t i = 0; i < phase->requests.size(); ++i) {
    phase->records[i].due_ns =
        start + static_cast<int64_t>(phase->requests[i].due_s * 1e9);
  }
  const int64_t stall_ns =
      allow_stall ? static_cast<int64_t>(options.stall_ms * 1e6) : 0;
  DriveSessions(clients, phase, window,
                start + static_cast<int64_t>(duration_s * 1e9),
                start + static_cast<int64_t>(options.stall_at_s * 1e9),
                stall_ns, result);
  int64_t last = start;
  for (const Record& record : phase->records) last = std::max(last, record.recv_ns);
  return NsToMs(last - start) / 1000.0;
}

std::vector<psc::Value> DomainValues(const ServeCollection& collection) {
  std::vector<psc::Value> domain;
  for (const std::string& value : collection.domain) domain.emplace_back(value);
  return domain;
}

/// The tail of pscd's answer response, from "worlds_used" on, for a cold
/// answer computed in-process — the part a cache hit must reproduce.
std::string AnswerPayload(const psc::QueryAnswer& answer) {
  std::string certain = "[";
  for (const psc::Tuple& tuple : answer.certain) {
    if (certain.size() > 1) certain += ",";
    certain += "\"" + psc::obs::JsonEscape(psc::TupleToString(tuple)) + "\"";
  }
  certain += "]";
  std::string confidences = "[";
  for (const auto& [tuple, confidence] : answer.confidences.entries()) {
    if (confidences.size() > 1) confidences += ",";
    confidences += "[\"" + psc::obs::JsonEscape(psc::TupleToString(tuple)) +
                   "\"," + psc::serve::FormatFixed6(confidence) + "]";
  }
  confidences += "]";
  return "\"worlds_used\":" + std::to_string(answer.worlds_used) +
         ",\"truncated\":" + (answer.truncated ? "true" : "false") +
         ",\"certain\":" + certain + ",\"confidences\":" + confidences + "}";
}

std::string ResponsePayload(const std::string& response) {
  const size_t at = response.find("\"worlds_used\"");
  return at == std::string::npos ? response : response.substr(at);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Counter or histogram field from pscd's --metrics-out report.
double ReportNumber(const psc::obs::JsonValue& report, const char* section,
                    const char* name, const char* field) {
  const psc::obs::JsonValue* group = report.Find(section);
  if (group == nullptr) return 0;
  const psc::obs::JsonValue* entry = group->Find(name);
  if (entry == nullptr) return 0;
  if (field == nullptr) return entry->is_number() ? entry->number() : 0;
  const psc::obs::JsonValue* value = entry->Find(field);
  return value != nullptr && value->is_number() ? value->number() : 0;
}

/// Spawns pscd, loads every collection and checks each once.
bool SetUpDaemon(const Options& options, int index,
                 const std::vector<std::string>& texts,
                 const std::vector<ServeCollection>& collections,
                 Daemon* daemon, LineClient* client, RunResult* result) {
  const std::string tag = std::to_string(index);
  if (!daemon->Start(options.pscd, "pscd" + tag + ".sock",
                     "pscd" + tag + ".metrics.json", "pscd" + tag + ".log")) {
    result->Error("could not start pscd at " + options.pscd);
    return false;
  }
  if (!client->Connect("pscd" + tag + ".sock", daemon)) {
    result->Error("pscd did not accept a connection");
    return false;
  }
  std::string response;
  for (size_t c = 0; c < collections.size(); ++c) {
    const std::string load = Json()
                                 .Str("verb", "load")
                                 .Str("collection", collections[c].name)
                                 .Str("text", texts[c])
                                 .Finish();
    if (!client->Call(load, &response) || !Contains(response, "\"ok\":true")) {
      result->Error("load failed: " + response.substr(0, 300));
      return false;
    }
  }
  for (const ServeCollection& collection : collections) {
    const std::string check =
        Json().Str("verb", "check").Str("collection", collection.name).Finish();
    if (!client->Call(check, &response) ||
        !Contains(response, "\"verdict\":\"CONSISTENT\"")) {
      result->Error("first check failed: " + response.substr(0, 300));
      return false;
    }
  }
  return true;
}

bool StopDaemon(Daemon* daemon, LineClient* client) {
  std::string response;
  client->Call(Json().Str("verb", "shutdown").Finish(), &response);
  client->Close();
  return daemon->Wait(30) == 0;
}

/// Replays `requests` one at a time through an in-process serve::Engine at
/// default options; with an enabled tracer each request is a
/// "serve.request" span over serve.request_parse and serve.engine_*. With
/// a `socket`, each request first goes through that pscd session too, in
/// lockstep, and each answer's round trip minus its engine time goes to
/// `socket_minus_engine_us`: pairing cancels host drift that two separate
/// replays would not. Returns per-request durations, µs.
std::vector<double> EngineReplay(const std::vector<std::string>& texts,
                                 const std::vector<ServeCollection>& collections,
                                 const std::vector<ServeRequest>& requests,
                                 const std::vector<std::string>& lines,
                                 Tracer* tracer, LineClient* socket,
                                 std::vector<double>* socket_minus_engine_us,
                                 RunResult* result) {
  psc::serve::Engine engine{psc::serve::EngineOptions{}};
  for (size_t c = 0; c < collections.size(); ++c) {
    const std::string response = engine.Call(
        1, Json()
               .Str("verb", "load")
               .Str("collection", collections[c].name)
               .Str("text", texts[c])
               .Finish());
    if (!Contains(response, "\"ok\":true")) {
      result->Error("in-process load failed");
      return {};
    }
  }
  std::vector<double> durations;
  std::string response;
  for (size_t i = 0; i < requests.size(); ++i) {
    const bool answer = requests[i].kind == RequestKind::kAnswer;
    int64_t round_trip_ns = 0;
    if (socket != nullptr) {
      const int64_t sent = NowNs();
      if (!socket->Call(lines[i], &response)) {
        result->Error("socket replay lost pscd");
        break;
      }
      round_trip_ns = NowNs() - sent;
    }
    tracer->NextRequest();
    const int64_t start = NowNs();
    int64_t engine_ns = 0;
    {
      const Span request_span(tracer, "serve.request");
      {
        const Span span(tracer, "serve.request_parse");
        auto parsed = psc::serve::ParseRequest(lines[i]);
        if (!parsed.ok()) result->Error("ParseRequest rejected a request");
      }
      const Span span(tracer,
                      answer ? "serve.engine_answer" : "serve.engine_other");
      const int64_t called = NowNs();
      engine.Call(1 + requests[i].connection, lines[i]);
      engine_ns = NowNs() - called;
    }
    durations.push_back(NsToUs(NowNs() - start));
    if (socket != nullptr && answer) {
      socket_minus_engine_us->push_back(NsToUs(round_trip_ns - engine_ns));
    }
  }
  return durations;
}

/// The delta layer on its own: one IncrementalSystem per collection, fed
/// the same stream, with the engine's check-before-answer.
void DeltaReplay(const std::vector<std::string>& texts,
                 const std::vector<ServeCollection>& collections,
                 const std::vector<ServeRequest>& requests, Tracer* tracer,
                 RunResult* result) {
  std::vector<std::unique_ptr<psc::delta::IncrementalSystem>> systems;
  for (const std::string& text : texts) {
    auto collection = psc::ParseCollection(text);
    if (!collection.ok()) return result->Error("collection text did not parse");
    auto system = psc::delta::IncrementalSystem::Create(std::move(*collection));
    if (!system.ok()) return result->Error("IncrementalSystem::Create failed");
    systems.push_back(
        std::make_unique<psc::delta::IncrementalSystem>(std::move(*system)));
    (void)systems.back()->CheckConsistency();
  }
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  std::vector<double> apply_us;
  std::vector<double> check_us;
  uint64_t full_checks = 0;
  for (const ServeRequest& request : requests) {
    psc::delta::IncrementalSystem& system = *systems[request.collection];
    const ServeCollection& collection = collections[request.collection];
    if (request.kind == RequestKind::kWrite) {
      auto batches = psc::delta::ParseDeltaScript(request.script);
      if (!batches.ok() || batches->size() != 1) {
        return result->Error("delta script did not parse");
      }
      int64_t start = NowNs();
      {
        const Span span(tracer, "delta.apply");
        (void)system.ApplyDelta(batches->front());
      }
      apply_us.push_back(NsToUs(NowNs() - start));
      start = NowNs();
      std::string method;
      {
        const Span span(tracer, "delta.check");
        auto report = system.CheckConsistency();
        method = report.ok() ? report->method : "error";
      }
      check_us.push_back(NsToUs(NowNs() - start));
      if (method.rfind("delta-", 0) != 0) ++full_checks;
    } else if (request.kind == RequestKind::kAnswer) {
      (void)system.CheckConsistency();
      auto query = psc::ParseQuery(collection.queries[request.query]);
      if (!query.ok()) return result->Error("pool query did not parse");
      const std::vector<psc::Value> domain = DomainValues(collection);
      const int64_t start = NowNs();
      bool hit = false;
      {
        const Span span(tracer, "delta.answer");
        auto answer = system.AnswerExact(*query, domain);
        hit = answer.ok() && answer->from_cache;
      }
      (hit ? hit_us : miss_us).push_back(NsToUs(NowNs() - start));
    }
  }
  const double answers = static_cast<double>(hit_us.size() + miss_us.size());
  result->layers["delta.answer_hit_us"] = Median(hit_us);
  result->layers["delta.answer_miss_us"] = Median(miss_us);
  result->layers["delta.answer_hit_frac"] =
      answers > 0 ? static_cast<double>(hit_us.size()) / answers : 0;
  result->layers["delta.apply_us"] = Median(apply_us);
  result->layers["delta.check_us"] = Median(check_us);
  result->layers["delta.rung_full_frac"] =
      check_us.empty() ? 0
                       : static_cast<double>(full_checks) /
                             static_cast<double>(check_us.size());
}

/// Cold entry points of the solver layers over the served collections: the
/// QuerySystem ones here, the layers below them through ProbeLayers.
void LayerProbes(const std::vector<std::string>& texts,
                 const std::vector<ServeCollection>& collections,
                 Tracer* tracer, RunResult* result) {
  constexpr int kRepeats = 5;
  ProbeCounts counts;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (size_t c = 0; c < collections.size(); ++c) {
      const ServeCollection& served = collections[c];
      psc::Result<psc::SourceCollection> parsed;
      {
        const Span span(tracer, "parser.collection");
        parsed = psc::ParseCollection(texts[c]);
      }
      if (!parsed.ok()) return result->Error("collection text did not parse");
      const psc::SourceCollection& collection = *parsed;
      const bool identity = collection.AllIdentityViews();
      auto system = psc::QuerySystem::Create(collection);
      if (!system.ok()) return result->Error("QuerySystem::Create failed");
      {
        const Span span(tracer, "core.check");
        (void)system->CheckConsistency();
      }
      const std::vector<psc::Value> domain = DomainValues(served);
      for (size_t q = 0; q < served.queries.size(); ++q) {
        psc::Result<psc::ConjunctiveQuery> query;
        {
          const Span span(tracer, "parser.query");
          query = psc::ParseQuery(served.queries[q]);
        }
        if (!query.ok()) return result->Error("pool query did not parse");
        {
          const Span span(tracer, "core.answer_exact");
          (void)system->AnswerExact(*query, domain);
        }
        if (identity) {
          const Span span(tracer, "core.answer_mc");
          (void)system->AnswerMonteCarlo(*query, domain, kMcSamples, 17);
        }
        ProbeInput input;
        input.collection = &collection;
        input.query = &*query;
        input.domain = domain;
        input.enumerate = identity;
        input.sample = identity;
        input.eval_confidence = identity;
        input.seed = psc::MixSeed(static_cast<uint64_t>(repeat), c * 16 + q);
        ProbeLayers(input, tracer, &counts, result);
      }
    }
  }
  counts.Report(result);
}

/// One pscd and the generator's own copy of its collections, advanced by
/// every write generated for it.
struct Instance {
  int tag = 0;
  std::unique_ptr<Daemon> daemon;
  std::vector<ServeCollection> model;
};

/// Open-loop requests of every phase, as columns, with due times laid end
/// to end; the reference rung's latencies also become the run's samples.
struct Ladder {
  std::vector<double> rung, kind, due_ms, latency_ms, lag_ms;
  double offset_ms = 0;

  void Append(const Phase& phase, RunResult* result) {
    if (phase.records.empty()) return;
    static const char* kNames[] = {"answer", "check", "write"};
    const int64_t origin =
        phase.records.front().due_ns -
        static_cast<int64_t>(phase.requests.front().due_s * 1e9);
    double last_ms = 0;
    for (size_t i = 0; i < phase.requests.size(); ++i) {
      const ServeRequest& request = phase.requests[i];
      const Record& record = phase.records[i];
      const double latency = NsToMs(record.recv_ns - record.due_ns);
      last_ms = NsToMs(record.due_ns - origin);
      rung.push_back(static_cast<double>(request.rung));
      kind.push_back(static_cast<double>(request.kind));
      due_ms.push_back(offset_ms + last_ms);
      latency_ms.push_back(latency);
      lag_ms.push_back(NsToMs(record.send_ns - record.due_ns));
      if (request.rung == kReferenceRung) {
        result->samples[kNames[static_cast<int>(request.kind)]].push_back(
            latency);
      }
    }
    offset_ms += last_ms + 1;
  }

  std::string ToJson() const {
    return Json()
        .Raw("rung", Json::Array(rung))
        .Raw("kind", Json::Array(kind))
        .Raw("due_ms", Json::Array(due_ms))
        .Raw("latency_ms", Json::Array(latency_ms))
        .Raw("lag_ms", Json::Array(lag_ms))
        .Finish();
  }
};

void AssignLines(const std::vector<ServeCollection>& collections,
                 Phase* phase) {
  phase->lines.clear();
  for (size_t i = 0; i < phase->requests.size(); ++i) {
    phase->lines.push_back(ProtocolLine(collections, phase->requests[i], i + 1));
  }
}

bool ConnectSessions(int tag, Daemon* daemon,
                     std::vector<std::unique_ptr<LineClient>>* clients,
                     RunResult* result) {
  clients->clear();
  for (size_t c = 0; c < kConnections; ++c) {
    clients->push_back(std::make_unique<LineClient>());
    if (!clients->back()->Connect("pscd" + std::to_string(tag) + ".sock",
                                  daemon)) {
      result->Error("session connect failed");
      return false;
    }
  }
  return true;
}

/// Applies to `model` the writes of `phase` that were sent (each toggles
/// one candidate tuple of one source: "+ S1(args)" / "- S1(args)").
void ApplySentWrites(const Phase& phase, std::vector<ServeCollection>* model) {
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const ServeRequest& request = phase.requests[i];
    if (request.kind != RequestKind::kWrite || phase.records[i].send_ns == 0) {
      continue;
    }
    const bool insert = request.script[0] == '+';
    const std::string body = request.script.substr(2);
    for (ServeSource& source : (*model)[request.collection].sources) {
      if (body.rfind(source.name + "(", 0) != 0) continue;
      const std::string args = body.substr(
          source.name.size() + 1, body.size() - source.name.size() - 2);
      for (int k = 0; k < static_cast<int>(source.candidates.size()); ++k) {
        if (source.candidates[static_cast<size_t>(k)] != args) continue;
        if (insert) {
          source.extension.insert(k);
        } else {
          source.extension.erase(k);
        }
      }
    }
  }
}

/// The quiescent pass: every pool query of `model`, answered by pscd, must
/// match a cold QuerySystem::AnswerExact on the generator's copy.
void VerifyAnswers(LineClient* verifier,
                   const std::vector<ServeCollection>& model,
                   int64_t* stale_worlds_used, RunResult* result) {
  uint64_t verify_id = 1'000'000'000;
  for (const ServeCollection& collection : model) {
    auto parsed = psc::ParseCollection(collection.Text());
    auto system = parsed.ok() ? psc::QuerySystem::Create(std::move(*parsed))
                              : psc::Result<psc::QuerySystem>(parsed.status());
    if (!system.ok()) {
      result->Error("final collection did not load in-process");
      return;
    }
    for (const std::string& text : collection.queries) {
      auto query = psc::ParseQuery(text);
      auto cold = query.ok()
                      ? system->AnswerExact(*query, DomainValues(collection))
                      : psc::Result<psc::QueryAnswer>(query.status());
      std::string response;
      const std::string request =
          Json()
              .Int("id", static_cast<int64_t>(++verify_id))
              .Str("verb", "answer")
              .Str("collection", collection.name)
              .Str("query", text)
              .Raw("domain", Json::StringArray(collection.domain))
              .Finish();
      if (!cold.ok() || !verifier->Call(request, &response)) {
        result->Error("quiescent pass could not answer " + text);
        continue;
      }
      // worlds_used is compared apart: a group-scoped cache hit after a
      // write to another relation group keeps the old |poss(S)| (README,
      // "Known program issues"), while the answer itself must match.
      const std::string served = ResponsePayload(response);
      const std::string expected = AnswerPayload(*cold);
      const auto answer_part = [](const std::string& payload) {
        return payload.substr(
            std::min(payload.size(), payload.find(",\"truncated\"")));
      };
      if (answer_part(served) != answer_part(expected)) {
        result->Error("pscd answer differs from a cold AnswerExact for '" +
                      text + "' on " + collection.name + ": pscd " +
                      served.substr(0, 200) + " cold " +
                      expected.substr(0, 200));
      } else if (served != expected) {
        ++*stale_worlds_used;
      }
    }
  }
}

/// Sends `phase` open loop over `clients` and records it in `ladder`.
bool RunOpenLoopPhase(const Options& options, const Instance& instance,
                      std::vector<std::unique_ptr<LineClient>>* clients,
                      Phase* phase, bool allow_stall, Ladder* ladder,
                      RunResult* result) {
  AssignLines(instance.model, phase);
  const double duration_s =
      phase->requests.empty() ? 0 : phase->requests.back().due_s;
  RunPhase(*clients, phase, 0, duration_s, options, allow_stall, result);
  if (!result->errors.empty()) return false;
  ladder->Append(*phase, result);
  return true;
}

/// One reference segment on its own pscd: open loop, quiescent pass, stop.
bool RunOpenLoop(const Options& options, Instance* instance, Phase* phase,
                 bool allow_stall, Ladder* ladder, int64_t* stale_worlds_used,
                 RunResult* result) {
  std::vector<std::unique_ptr<LineClient>> clients;
  if (!ConnectSessions(instance->tag, instance->daemon.get(), &clients,
                       result) ||
      !RunOpenLoopPhase(options, *instance, &clients, phase, allow_stall,
                        ladder, result)) {
    return false;
  }
  VerifyAnswers(clients.front().get(), instance->model, stale_worlds_used,
                result);
  for (size_t c = 1; c < clients.size(); ++c) clients[c]->Close();
  if (!StopDaemon(instance->daemon.get(), clients.front().get())) {
    result->Error("pscd did not exit cleanly after shutdown");
  }
  return result->errors.empty();
}

/// Reads the serving counters of the --metrics-out report pscd `tag` wrote
/// when it stopped.
bool ReadDaemonReport(int tag, RunResult* result) {
  auto report = psc::obs::ParseJson(
      ReadFile("pscd" + std::to_string(tag) + ".metrics.json"));
  if (!report.ok()) {
    result->Error("pscd metrics report unreadable");
    return false;
  }
  const auto counter = [&](const char* name) {
    return ReportNumber(*report, "counters", name, nullptr);
  };
  const double ops_applied = counter("delta.ops_applied");
  const double answers = counter("serve.requests.answer");
  const double requests = answers + counter("serve.requests.check") +
                          counter("serve.requests.apply_delta") +
                          counter("serve.requests.load");
  result->extra.Raw("pscd", Json()
                                .Num("delta.ops_applied", ops_applied)
                                .Num("delta.noops", counter("delta.noops"))
                                .Num("serve.requests.answer", answers)
                                .Num("exec.pools_created",
                                     counter("exec.pools_created"))
                                .Finish());
#if PSC_OBS_ENABLED
  if (ops_applied <= 0) result->Error("pscd report shows delta.ops_applied = 0");
#endif
  result->layers["serve.batch_size_mean"] =
      ReportNumber(*report, "histograms", "serve.batch.size", "mean");
  result->layers["serve.dedup_frac"] =
      answers > 0 ? counter("serve.batch.dedup_hits") / answers : 0;
  result->layers["exec.pools_per_request"] =
      requests > 0 ? counter("exec.pools_created") / requests : 0;
  return true;
}

/// The serve and delta layers on serve_mix's collections and stream for
/// the seed: the first kReplayRequests requests go once through an
/// untraced in-process engine, then through a fresh pscd and a traced
/// engine in lockstep, and through DeltaReplay. A concurrent burst on that
/// pscd then fills its batching and dedup counters, read from its report.
/// Returns the traced / untraced engine median − 1.
double MeasureServeLayers(const Options& options, Tracer* tracer,
                          RunResult* result) {
  constexpr int kTag = 90;
  const std::vector<ServeCollection> initial =
      MakeServeCollections(options.seed);
  std::vector<std::string> texts;
  for (const ServeCollection& collection : initial) {
    texts.push_back(collection.Text());
  }
  std::vector<ServeCollection> model = initial;
  ServeStream stream(&model, psc::MixSeed(options.seed, 0));
  Phase replay;
  replay.requests = stream.Burst(kReplayRequests, kReferenceRung);
  AssignLines(model, &replay);

  Tracer untraced(false);
  const std::vector<double> plain =
      EngineReplay(texts, initial, replay.requests, replay.lines, &untraced,
                   nullptr, nullptr, result);
  Daemon daemon;
  LineClient client;
  std::vector<double> traced;
  std::vector<double> socket_us;
  if (SetUpDaemon(options, kTag, texts, initial, &daemon, &client, result)) {
    traced = EngineReplay(texts, initial, replay.requests, replay.lines,
                          tracer, &client, &socket_us, result);
    std::vector<std::unique_ptr<LineClient>> sessions;
    if (ConnectSessions(kTag, &daemon, &sessions, result)) {
      Phase burst;
      burst.requests = stream.Burst(kBurstRequests, kReferenceRung);
      AssignLines(model, &burst);
      RunPhase(sessions, &burst, kSaturationWindow, kBurstSeconds, options,
               false, result);
    }
    sessions.clear();
    if (!StopDaemon(&daemon, &client)) {
      result->Error("pscd did not exit cleanly after shutdown");
    } else {
      ReadDaemonReport(kTag, result);
    }
  }
  if (result->failed > 0) {
    result->Error(std::to_string(result->failed) +
                  " failed requests in the serve-layer burst");
  }
  DeltaReplay(texts, initial, replay.requests, tracer, result);
  result->layers["serve.socket_us"] = Median(socket_us);
  return Median(plain) > 0 ? Median(traced) / Median(plain) - 1 : 0;
}

}  // namespace

void MeasureRemainingLayers(const Options& options, Tracer* tracer,
                            RunResult* result) {
  RunResult probe;
  const double overhead = MeasureServeLayers(options, tracer, &probe);
  const std::vector<ServeCollection> initial =
      MakeServeCollections(options.seed);
  std::vector<std::string> texts;
  for (const ServeCollection& collection : initial) {
    texts.push_back(collection.Text());
  }
  LayerProbes(texts, initial, tracer, &probe);
  SetLayerTimes(*tracer, &probe);
  probe.layers.emplace("trace.overhead_frac", overhead);
  for (const auto& [name, value] : probe.layers) {
    result->layers.emplace(name, value);
  }
  for (const std::string& error : probe.errors) result->Error(error);
}

int RunServeMix(const Options& options, RunResult* result) {
  const std::vector<ServeCollection> initial =
      MakeServeCollections(options.seed);
  std::vector<std::string> initial_texts;
  for (const ServeCollection& collection : initial) {
    initial_texts.push_back(collection.Text());
  }
  const auto share_s = [&](double share) {
    return options.rung_seconds > 0 ? options.rung_seconds
                                    : options.seconds * share;
  };

  // 1. set-up, kSetups times; every daemon then serves one part of the run.
  std::vector<Instance> instances(kSetups);
  for (int s = 0; s < kSetups; ++s) {
    Instance& instance = instances[static_cast<size_t>(s)];
    instance.tag = s;
    instance.daemon = std::make_unique<Daemon>();
    instance.model = initial;
    LineClient setup_client;
    const int64_t start = NowNs();
    if (!SetUpDaemon(options, s, initial_texts, initial, instance.daemon.get(),
                     &setup_client, result)) {
      return 1;
    }
    result->setup_s.push_back(NsToMs(NowNs() - start) / 1000.0);
  }

  // 2. the reference rung, one segment on each daemon but the last, so its
  // samples span several server processes and most of the run.
  Ladder ladder;
  int64_t stale_worlds_used = 0;
  for (int s = 0; s + 1 < kSetups; ++s) {
    Instance& instance = instances[static_cast<size_t>(s)];
    ServeStream stream(&instance.model, psc::MixSeed(options.seed, s));
    Phase segment;
    segment.requests = stream.Poisson(
        kRungRates[kReferenceRung],
        share_s(kReferenceShare / (kSetups - 1)), kReferenceRung);
    if (!RunOpenLoop(options, &instance, &segment, s == 0, &ladder,
                     &stale_worlds_used, result)) {
      return 1;
    }
  }

  // 3. the higher rungs, then saturation, on the last daemon.
  Instance& main = instances.back();
  ServeStream stream(&main.model, psc::MixSeed(options.seed, kSetups));
  Phase rungs;
  double offset_s = 0;
  for (size_t rung = 0; rung < kRungs; ++rung) {
    if (rung == kReferenceRung) continue;
    for (ServeRequest& request :
         stream.Poisson(kRungRates[rung], share_s(kRungShare), rung)) {
      request.due_s += offset_s;
      rungs.requests.push_back(std::move(request));
    }
    offset_s += share_s(kRungShare);
  }
  const std::vector<ServeCollection> after_rungs = main.model;
  Phase saturation;
  saturation.requests = stream.Burst(
      static_cast<size_t>(std::max(2000.0, share_s(kSaturationShare) * 20000)),
      kRungs);
  std::vector<std::unique_ptr<LineClient>> clients;
  if (!ConnectSessions(main.tag, main.daemon.get(), &clients, result) ||
      !RunOpenLoopPhase(options, main, &clients, &rungs, false, &ladder,
                        result)) {
    return 1;
  }
  AssignLines(main.model, &saturation);
  const double elapsed = RunPhase(clients, &saturation, kSaturationWindow,
                                  share_s(kSaturationShare), options, false,
                                  result);
  size_t completed = 0;
  for (const Record& record : saturation.records) {
    if (record.recv_ns > 0) ++completed;
  }
  result->ops_per_s =
      elapsed > 0 ? static_cast<double>(completed) / elapsed : 0;
  result->extra.Int("saturation_completed", static_cast<int64_t>(completed));
  main.model = after_rungs;
  ApplySentWrites(saturation, &main.model);
  VerifyAnswers(clients.front().get(), main.model, &stale_worlds_used, result);
  result->peak_rss_mb = PeakRssMb(std::to_string(main.daemon->pid()));
  for (size_t c = 1; c < clients.size(); ++c) clients[c]->Close();
  if (!StopDaemon(main.daemon.get(), clients.front().get())) {
    result->Error("pscd did not exit cleanly after shutdown");
  }

  std::vector<double> rates(std::begin(kRungRates), std::end(kRungRates));
  result->extra.Raw("rung_rates", Json::Array(rates))
      .Int("reference_rung", static_cast<int64_t>(kReferenceRung))
      .Raw("ladder", ladder.ToJson())
      .Int("stale_worlds_used", stale_worlds_used);
  if (!ReadDaemonReport(main.tag, result)) return 1;
  if (!options.trace) return result->errors.empty() ? 0 : 1;

  // Traced run: every layer, on the served collections and the first
  // reference segment's stream.
  Tracer tracer(true);
  MeasureRemainingLayers(options, &tracer, result);
  int64_t negative_self = 0;
  result->extra.Raw("self_time", tracer.SelfTimeJson(&negative_self))
      .Int("negative_self_spans", negative_self);
  if (!tracer.WriteJsonl("spans.jsonl")) result->Error("could not write spans");
  return result->errors.empty() ? 0 : 1;
}

}  // namespace perfbench
