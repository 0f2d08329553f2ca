/// Tests of the training-telemetry sink: enabled-flag discipline, scope
/// labelling, deterministic serialization, and the JSONL artifact shape.

#include "util/telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace mysawh {
namespace {

/// Disables telemetry on scope exit so a failing test never leaks an
/// enabled session into its neighbours.
struct TelemetrySession {
  TelemetrySession() { Telemetry::Global().Enable(); }
  ~TelemetrySession() { Telemetry::Global().Disable(); }
};

TEST(TelemetryTest, DisabledByDefaultAndStreamsInactive) {
  EXPECT_FALSE(TelemetryEnabled());
  TelemetryStream stream = Telemetry::Global().StartStream("train");
  EXPECT_FALSE(stream.active());
  stream.Line("round", "\"round\":0");  // no-op when inactive
  stream.Finish();
  EXPECT_EQ(Telemetry::Global().stream_count(), 0u);
}

TEST(TelemetryTest, EnableStartsAFreshSession) {
  {
    TelemetrySession session;
    TelemetryStream stream = Telemetry::Global().StartStream("first");
    stream.Finish();
    EXPECT_EQ(Telemetry::Global().stream_count(), 1u);
  }
  TelemetrySession session;  // Enable() must clear the previous session
  EXPECT_EQ(Telemetry::Global().stream_count(), 0u);
}

TEST(TelemetryTest, ScopesBuildHierarchicalLabels) {
  TelemetrySession session;
  EXPECT_EQ(TelemetryContextLabel(), "");
  {
    TelemetryScope cell("QoL-DD-fi0");
    EXPECT_EQ(TelemetryContextLabel(), "QoL-DD-fi0");
    {
      TelemetryScope fold("cv3");
      EXPECT_EQ(TelemetryContextLabel(), "QoL-DD-fi0/cv3");
      TelemetryStream stream = Telemetry::Global().StartStream("train");
      EXPECT_EQ(stream.label(), "QoL-DD-fi0/cv3/train");
    }
    EXPECT_EQ(TelemetryContextLabel(), "QoL-DD-fi0");
  }
  EXPECT_EQ(TelemetryContextLabel(), "");
}

TEST(TelemetryTest, ScopesAreThreadLocal) {
  TelemetrySession session;
  TelemetryScope outer("main-thread");
  std::string other_label;
  std::thread worker([&other_label] {
    TelemetryScope scope("worker");
    other_label = TelemetryContextLabel();
  });
  worker.join();
  EXPECT_EQ(other_label, "worker");
  EXPECT_EQ(TelemetryContextLabel(), "main-thread");
}

TEST(TelemetryTest, JsonlHasHeaderAndSortedStreams) {
  TelemetrySession session;
  // Deposit out of label order; serialization must sort.
  {
    TelemetryStream b = Telemetry::Global().StartStream("b");
    b.Line("round", "\"round\":0,\"train\":0.5");
  }
  {
    TelemetryStream a = Telemetry::Global().StartStream("a");
    a.Line("header", "\"rows\":10");
  }
  const std::string jsonl = Telemetry::Global().ToJsonl();
  const std::vector<std::string> expected = {
      "{\"schema\":\"mysawh-telemetry v1\",\"streams\":2}",
      "{\"stream\":\"a\",\"type\":\"header\",\"rows\":10}",
      "{\"stream\":\"b\",\"type\":\"round\",\"round\":0,\"train\":0.5}",
  };
  std::string want;
  for (const auto& line : expected) {
    want += line;
    want += '\n';
  }
  EXPECT_EQ(jsonl, want);
}

TEST(TelemetryTest, ConcurrentDepositsSerializeDeterministically) {
  std::string reference;
  for (int round = 0; round < 3; ++round) {
    TelemetrySession session;
    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t) {
      workers.emplace_back([t] {
        std::string segment = "w";
        segment += std::to_string(t);
        TelemetryScope scope(segment);
        TelemetryStream stream = Telemetry::Global().StartStream("train");
        for (int i = 0; i < 50; ++i) {
          stream.Line("round", "\"round\":" + std::to_string(i));
        }
      });
    }
    for (auto& w : workers) w.join();
    const std::string jsonl = Telemetry::Global().ToJsonl();
    if (round == 0) {
      reference = jsonl;
    } else {
      EXPECT_EQ(jsonl, reference);
    }
  }
}

TEST(TelemetryTest, DoubleRenderingIsRoundTripExactAndDeterministic) {
  for (double value :
       {0.1, 1.0 / 3.0, 123456.789, 1e-300, 1e300, -0.0, 42.0}) {
    const std::string text = TelemetryDouble(value);
    EXPECT_EQ(std::stod(text), value) << text;
  }
  EXPECT_EQ(TelemetryDouble(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(TelemetryDouble(0.5), "0.5");
  EXPECT_EQ(TelemetryDouble(2.0), "2");
}

TEST(TelemetryTest, MoveTransfersOwnership) {
  TelemetrySession session;
  TelemetryStream stream = Telemetry::Global().StartStream("moved");
  stream.Line("header", "\"rows\":1");
  TelemetryStream taken = std::move(stream);
  EXPECT_FALSE(stream.active());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(taken.active());
  taken.Finish();
  EXPECT_EQ(Telemetry::Global().stream_count(), 1u);
}

}  // namespace
}  // namespace mysawh
