#include "obs/session.h"

#include <cstdio>

namespace gva::obs {

ObsSession::ObsSession(Options options) : options_(std::move(options)) {
  if (tracing()) {
    GlobalTracer().Enable();
  }
  if (metrics()) {
    SetStageTimingEnabled(true);
  }
}

ObsSession::~ObsSession() {
  const Status status = Flush();
  if (!status.ok()) {
    std::fprintf(stderr, "obs export failed: %s\n",
                 status.ToString().c_str());
  }
  if (tracing()) {
    GlobalTracer().Disable();
  }
  if (metrics()) {
    SetStageTimingEnabled(false);
  }
}

Status ObsSession::Flush() {
  Status first = Status::Ok();
  if (tracing()) {
    const Status status = GlobalTracer().WriteChromeTrace(options_.trace_path);
    if (!status.ok() && first.ok()) {
      first = status;
    } else if (status.ok() && options_.announce && !flushed_) {
      std::printf("trace written: %s\n", options_.trace_path.c_str());
    }
  }
  if (metrics()) {
    const std::string json = GlobalMetrics().ToJson();
    std::FILE* f = std::fopen(options_.metrics_path.c_str(), "w");
    if (f == nullptr) {
      if (first.ok()) {
        first = Status::IoError("cannot open metrics file '" +
                                options_.metrics_path + "'");
      }
    } else {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      if (options_.announce && !flushed_) {
        std::printf("metrics written: %s\n", options_.metrics_path.c_str());
      }
    }
  }
  flushed_ = true;
  return first;
}

}  // namespace gva::obs
