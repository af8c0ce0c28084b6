#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "minijson.hpp"

namespace parastack::obs {
namespace {

std::string export_json(const MetricsRegistry& registry) {
  std::ostringstream out;
  registry.write_json(out);
  return out.str();
}

TEST(MetricsRegistry, CountersCreateOnFirstUseAndAccumulate) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.has_counter("detector.samples"));
  registry.counter("detector.samples") += 3;
  registry.counter("detector.samples")++;
  EXPECT_TRUE(registry.has_counter("detector.samples"));
  EXPECT_EQ(registry.counter("detector.samples"), 4u);
  EXPECT_FALSE(registry.has_counter("never.touched"));
}

TEST(MetricsRegistry, HistogramShapeFixedByFirstCaller) {
  MetricsRegistry registry;
  auto& h1 = registry.histogram("delay", 0.0, 10.0, 5);
  auto& h2 = registry.histogram("delay", 0.0, 99.0, 50);  // ignored shape
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.bucket_count(), 5u);
}

TEST(MetricsRegistry, EmptyRegistryExportsValidJson) {
  MetricsRegistry registry;
  const auto text = export_json(registry);
  EXPECT_TRUE(testjson::is_valid_json(text)) << text;
  EXPECT_EQ(text,
            "{\"counters\":{},\"digests\":{},\"gauges\":{},\"summaries\":{},"
            "\"histograms\":{}}");
}

TEST(MetricsRegistry, PopulatedExportIsValidJsonWithSortedKeys) {
  MetricsRegistry registry;
  registry.counter("z.last") = 2;
  registry.counter("a.first") = 1;
  registry.gauge("detector.q") = 0.25;
  auto& s = registry.summary("delay_seconds");
  s.add(1.0);
  s.add(3.0);
  registry.histogram("scrout", 0.0, 1.0, 4).add(0.3);
  const auto text = export_json(registry);
  EXPECT_TRUE(testjson::is_valid_json(text)) << text;
  // std::map ordering makes the export deterministic.
  EXPECT_LT(text.find("a.first"), text.find("z.last"));
  EXPECT_NE(text.find("\"detector.q\":0.25"), std::string::npos);
  EXPECT_NE(text.find("\"count\":2"), std::string::npos);
  EXPECT_NE(text.find("\"mean\":2"), std::string::npos);
}

TEST(MetricsRegistry, ExportIsByteStableAcrossInsertionOrders) {
  MetricsRegistry forward;
  forward.counter("a") = 1;
  forward.counter("b") = 2;
  forward.gauge("g") = 0.5;
  MetricsRegistry backward;
  backward.gauge("g") = 0.5;
  backward.counter("b") = 2;
  backward.counter("a") = 1;
  EXPECT_EQ(export_json(forward), export_json(backward));
}

TEST(MetricsSink, FoldsSampleEventsIntoDetectorCounters) {
  MetricsRegistry registry;
  MetricsSink sink(registry);
  SampleEvent sample;
  sample.scrout = 0.6;
  sample.suspicious = false;
  sink.on_event(sample);
  sample.scrout = 0.0;
  sample.suspicious = true;
  sample.streak = 1;
  sink.on_event(sample);
  EXPECT_EQ(registry.counter("detector.samples"), 2u);
  EXPECT_EQ(registry.counter("detector.suspicious_samples"), 1u);
  const auto text = export_json(registry);
  EXPECT_TRUE(testjson::is_valid_json(text)) << text;
}

TEST(MetricsSink, CountsLifecycleEvents) {
  MetricsRegistry registry;
  MetricsSink sink(registry);
  sink.on_event(RunStartEvent{});
  sink.on_event(FaultEvent{});
  HangEvent hang;
  hang.faulty_ranks = {4, 9};
  sink.on_event(hang);
  SlowdownEvent slowdown;
  slowdown.rounds = 2;
  sink.on_event(slowdown);
  RunEndEvent end;
  end.killed = true;
  sink.on_event(end);
  EXPECT_EQ(registry.counter("harness.runs"), 1u);
  EXPECT_EQ(registry.counter("harness.runs_killed"), 1u);
  EXPECT_EQ(registry.counter("faults.activated"), 1u);
  EXPECT_EQ(registry.counter("detector.hangs"), 1u);
  EXPECT_EQ(registry.counter("detector.faulty_ranks_reported"), 2u);
  EXPECT_EQ(registry.counter("detector.slowdowns_absorbed"), 1u);
}

}  // namespace
}  // namespace parastack::obs
