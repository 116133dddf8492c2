// gva_serverd — the multi-tenant anomaly-detection daemon (DESIGN.md §13).
//
//   gva_serverd [--port N] [--bind ADDR] [--slots N] [--queue N]
//               [--job-threads N] [--max-streams N] [--quiet]
//
// Serves the /v1 job and stream API plus the shared telemetry surface
// (/metrics, /metrics.json, /healthz, /flightz) on one listener. Jobs run
// on a fixed slot pool behind a bounded FIFO queue; when the queue is full
// submissions get 429 + Retry-After. See README.md "Server quickstart" for
// the curl walkthrough.
//
//   --port N        TCP port (default 0 = ephemeral; the bound port is
//                   printed on the "listening on" line)
//   --bind ADDR     bind address (default 127.0.0.1; the API is plaintext
//                   and unauthenticated — exposing it wider is on you)
//   --slots N       concurrent job slots (default 2)
//   --queue N       queued-job capacity behind the slots (default 8)
//   --job-threads N per-job worker-thread clamp (default 4); slots times
//                   job-threads must not exceed 256, or startup fails
//   --max-streams N live streaming-session cap (default 64)
//   --quiet         print only the "listening on" line
//
// Shutdown: SIGINT/SIGTERM, or POST /v1/admin/shutdown. Both paths drain
// through AnomalyServer::Stop() so in-flight responses flush and the job
// workers join.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "net/server.h"
#include "obs/recorder.h"
#include "util/csv.h"

namespace {

int g_signal_pipe_write = -1;

// Async-signal-safe by construction: one write(2) to the self-pipe; main's
// poll loop does the actual shutdown on the normal stack.
extern "C" void ServerdSignalHandler(int /*signum*/) {
  if (g_signal_pipe_write >= 0) {
    const ssize_t written = ::write(g_signal_pipe_write, "s", 1);
    (void)written;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: gva_serverd [--port N] [--bind ADDR] [--slots N] "
               "[--queue N] [--job-threads N] [--max-streams N] [--quiet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gva::net::AnomalyServerOptions options;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quiet") {
      quiet = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (flag == "--bind") {
      options.bind_address = value;
      continue;
    }
    const gva::StatusOr<uint64_t> parsed = gva::ParseUnsigned(
        value, flag == "--port" ? 65535 : std::numeric_limits<size_t>::max());
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", flag.c_str(),
                   parsed.status().ToString().c_str());
      return Usage();
    }
    const size_t n = static_cast<size_t>(*parsed);
    if (flag == "--port") {
      options.port = static_cast<uint16_t>(n);
    } else if (flag == "--slots") {
      options.runner.slots = n;
    } else if (flag == "--queue") {
      options.runner.queue_capacity = n;
    } else if (flag == "--job-threads") {
      options.runner.max_threads_per_job = n;
    } else if (flag == "--max-streams") {
      options.max_streams = n;
    } else {
      return Usage();
    }
  }

  // A client that disconnects mid-response must cost us an EPIPE errno,
  // not a process death.
  std::signal(SIGPIPE, SIG_IGN);
  // Fatal-signal post-mortem: dump the span flight recorder, same as the
  // CLI.
  gva::obs::InstallFlightSignalHandler();

  auto server = gva::net::AnomalyServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  // CI's smoke test parses the port out of this exact line; keep it first
  // and keep it flushed.
  std::printf("gva_serverd listening on http://%s:%u\n",
              options.bind_address.c_str(),
              static_cast<unsigned>((*server)->port()));
  std::fflush(stdout);
  if (!quiet) {
    std::printf("slots=%zu queue=%zu job-threads=%zu max-streams=%zu\n",
                options.runner.slots, options.runner.queue_capacity,
                options.runner.max_threads_per_job, options.max_streams);
    std::fflush(stdout);
  }

  int signal_pipe[2];
  if (::pipe(signal_pipe) != 0) {
    std::fprintf(stderr, "cannot create signal pipe\n");
    return 1;
  }
  g_signal_pipe_write = signal_pipe[1];
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = ServerdSignalHandler;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  // Block until a signal or an admin shutdown request lands.
  pollfd fds[2];
  fds[0].fd = signal_pipe[0];
  fds[0].events = POLLIN;
  fds[1].fd = (*server)->shutdown_event_fd();
  fds[1].events = POLLIN;
  while (true) {
    fds[0].revents = 0;
    fds[1].revents = 0;
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0 && errno == EINTR) {
      continue;  // the handler's pipe write will show up on the next poll
    }
    if (ready > 0) {
      break;
    }
  }
  if (!quiet) {
    std::printf("shutting down (%s)\n",
                (fds[1].revents & POLLIN) != 0 ? "admin request" : "signal");
    std::fflush(stdout);
  }
  (*server)->Stop();
  ::close(signal_pipe[0]);
  ::close(signal_pipe[1]);
  return 0;
}
