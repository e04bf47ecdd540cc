// pscd — the resident query service.
//
// Keeps loaded source collections (and their compiled plans, hash
// indexes, consistency witnesses and delta-aware answer caches) warm in
// one long-lived process, and serves concurrent client sessions over a
// newline-delimited JSON protocol (see psc/serve/protocol.h):
//
//   pscd --unix /tmp/pscd.sock [--load data/example51.psc --name default]
//   pscd --port 7411                       # loopback TCP instead
//   pscd --port 0                          # ephemeral port, printed on stdout
//
// Options:
//   --unix PATH                listen on a Unix-domain socket
//   --port N                   listen on loopback TCP (0 = ephemeral)
//   --load FILE                preload a collection before serving; may be
//                              repeated, each paired with the preceding
//                              --name (default name: "default")
//   --name NAME                collection name for the next --load
//   --threads N                solver threads per request (0 = auto)
//   --dispatchers N            dispatcher threads (default 2)
//   --max-queue N              admission-control queue bound (default 1024)
//   --max-batch N              max answer requests fused per batch (16)
//   --deadline-ceiling-ms N    per-request deadline ceiling (0 = none)
//   --node-budget-ceiling N    per-request node-budget ceiling (0 = none)
//   --plan-cache-capacity N    cap the compiled-plan cache (0 = unbounded)
//   --memo-capacity N          cap the containment memo (0 = unbounded)
//   --per-request-scopes       one obs::Scope per request in the report
//   --metrics-out PATH         write the run report as JSON on shutdown
//   --trace-out PATH           write Chrome trace-event JSON on shutdown
//
// Without --deadline-ceiling-ms / --node-budget-ceiling (or the request's
// own deadline_ms / node_budget) a request runs until its method finishes.
//
// Shutdown: SIGINT/SIGTERM (or a client's `shutdown` verb) stops
// admission, cancels in-flight solver work through the engine's drain
// token, drains the queue so every accepted request still gets its
// response, flushes --metrics-out/--trace-out and exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "psc/obs/chrome_trace.h"
#include "psc/obs/log.h"
#include "psc/obs/report.h"
#include "psc/serve/engine.h"
#include "psc/serve/protocol.h"
#include "psc/serve/socket_server.h"
#include "psc/util/string_util.h"

namespace psc {
namespace {

/// The accept loop's wake-up handle for the signal handler. `Wake()` is
/// one write(2) to a pipe — async-signal-safe.
serve::SocketServer* g_server = nullptr;

void HandleShutdownSignal(int signo) {
  if (g_server != nullptr) g_server->Wake();
  // A second signal kills the process the old-fashioned way.
  std::signal(signo, SIG_DFL);
}

struct DaemonOptions {
  serve::EngineOptions engine;
  serve::SocketServerOptions socket;
  std::vector<std::pair<std::string, std::string>> preloads;  // name, file
  std::string metrics_out;
  std::string trace_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: pscd (--unix PATH | --port N) [--load FILE] "
               "[--name NAME] [--threads N] [--dispatchers N] "
               "[--max-queue N] [--max-batch N] [--deadline-ceiling-ms N] "
               "[--node-budget-ceiling N] [--plan-cache-capacity N] "
               "[--memo-capacity N] [--per-request-scopes] "
               "[--metrics-out PATH] [--trace-out PATH]\n"
               "without --deadline-ceiling-ms / --node-budget-ceiling a "
               "request runs until its method finishes\n");
  return 2;
}

Result<DaemonOptions> ParseArgs(int argc, char** argv) {
  DaemonOptions options;
  std::string pending_name = "default";
  bool endpoint_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(StrCat("missing value for ", arg));
      }
      return std::string(argv[++i]);
    };
    const auto next_uint = [&]() -> Result<uint64_t> {
      PSC_ASSIGN_OR_RETURN(const std::string value, next());
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument(
            StrCat("bad numeric value '", value, "' for ", arg));
      }
      return static_cast<uint64_t>(parsed);
    };
    if (arg == "--unix") {
      PSC_ASSIGN_OR_RETURN(options.socket.unix_path, next());
      endpoint_given = true;
    } else if (arg == "--port") {
      PSC_ASSIGN_OR_RETURN(const uint64_t port, next_uint());
      options.socket.tcp_port = static_cast<int>(port);
      options.socket.ephemeral_tcp = port == 0;
      endpoint_given = true;
    } else if (arg == "--load") {
      PSC_ASSIGN_OR_RETURN(const std::string file, next());
      options.preloads.emplace_back(pending_name, file);
      pending_name = "default";
    } else if (arg == "--name") {
      PSC_ASSIGN_OR_RETURN(pending_name, next());
    } else if (arg == "--threads") {
      PSC_ASSIGN_OR_RETURN(const uint64_t n, next_uint());
      options.engine.solver_threads = static_cast<size_t>(n);
    } else if (arg == "--dispatchers") {
      PSC_ASSIGN_OR_RETURN(const uint64_t n, next_uint());
      if (n == 0) {
        return Status::InvalidArgument("--dispatchers must be at least 1");
      }
      options.engine.dispatch_threads = static_cast<size_t>(n);
    } else if (arg == "--max-queue") {
      PSC_ASSIGN_OR_RETURN(const uint64_t n, next_uint());
      options.engine.max_queue = static_cast<size_t>(n);
    } else if (arg == "--max-batch") {
      PSC_ASSIGN_OR_RETURN(const uint64_t n, next_uint());
      options.engine.max_batch = static_cast<size_t>(n);
    } else if (arg == "--deadline-ceiling-ms") {
      PSC_ASSIGN_OR_RETURN(const uint64_t n, next_uint());
      options.engine.deadline_ceiling_ms = static_cast<int64_t>(n);
    } else if (arg == "--node-budget-ceiling") {
      PSC_ASSIGN_OR_RETURN(options.engine.node_budget_ceiling, next_uint());
    } else if (arg == "--plan-cache-capacity") {
      PSC_ASSIGN_OR_RETURN(const uint64_t n, next_uint());
      options.engine.plan_cache_capacity = static_cast<size_t>(n);
    } else if (arg == "--memo-capacity") {
      PSC_ASSIGN_OR_RETURN(const uint64_t n, next_uint());
      options.engine.containment_cache_capacity = static_cast<size_t>(n);
    } else if (arg == "--per-request-scopes") {
      options.engine.per_request_scopes = true;
    } else if (arg == "--metrics-out") {
      PSC_ASSIGN_OR_RETURN(options.metrics_out, next());
    } else if (arg == "--trace-out") {
      PSC_ASSIGN_OR_RETURN(options.trace_out, next());
    } else {
      return Status::InvalidArgument(StrCat("unknown argument ", arg));
    }
  }
  if (!endpoint_given) {
    return Status::InvalidArgument("one of --unix or --port is required");
  }
  if (!options.socket.unix_path.empty() &&
      (options.socket.tcp_port > 0 || options.socket.ephemeral_tcp)) {
    return Status::InvalidArgument("--unix and --port are mutually exclusive");
  }
  options.socket.max_line_bytes = options.engine.parse_limits.max_line_bytes;
  return options;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream input(path);
  if (!input) {
    return Status::NotFound(StrCat("cannot open '", path, "'"));
  }
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return buffer.str();
}

Status Preload(serve::Engine& engine, const std::string& name,
               const std::string& file) {
  PSC_ASSIGN_OR_RETURN(const std::string text, ReadFile(file));
  serve::JsonObjectWriter request;
  request.String("verb", "load");
  request.String("collection", name);
  request.String("text", text);
  const std::string response = engine.Call(0, request.Finish());
  if (response.find("\"ok\":true") == std::string::npos) {
    return Status::InvalidArgument(
        StrCat("preload of '", file, "' failed: ", response));
  }
  std::printf("loaded %s as '%s'\n", file.c_str(), name.c_str());
  return Status::OK();
}

int WriteArtifacts(const DaemonOptions& options) {
  if (options.metrics_out.empty() && options.trace_out.empty()) return 0;
  int failures = 0;
  const obs::RunReport report = obs::RunReport::Capture();
  if (!options.metrics_out.empty()) {
    const Status written = report.WriteJsonFile(options.metrics_out);
    if (!written.ok()) {
      obs::LogWarning(StrCat("--metrics-out: ", written.ToString()));
      ++failures;
    } else {
      std::printf("metrics written to %s\n", options.metrics_out.c_str());
    }
  }
  if (!options.trace_out.empty()) {
    const Status written = obs::WriteChromeTraceFile(report, options.trace_out);
    if (!written.ok()) {
      obs::LogWarning(StrCat("--trace-out: ", written.ToString()));
      ++failures;
    } else {
      std::printf("trace written to %s\n", options.trace_out.c_str());
    }
  }
  return failures;
}

int Main(int argc, char** argv) {
  auto options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n", options.status().ToString().c_str());
    return Usage();
  }

  serve::Engine engine(options->engine);
  for (const auto& [name, file] : options->preloads) {
    const Status loaded = Preload(engine, name, file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.ToString().c_str());
      return 1;
    }
  }

  serve::SocketServer server(&engine, options->socket);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // Readiness line for scripts: parse the endpoint from stdout.
  std::printf("pscd listening on %s\n", server.endpoint().c_str());
  std::fflush(stdout);

  server.Serve();

  // Stop admission, revoke in-flight solver work, answer everything that
  // was already accepted, then flush artifacts. Exit 0 on a clean drain.
  engine.BeginShutdown();
  engine.Drain();
  g_server = nullptr;
  std::printf("pscd draining complete\n");
  const int artifact_failures = WriteArtifacts(*options);
  return artifact_failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace psc

int main(int argc, char** argv) { return psc::Main(argc, argv); }
