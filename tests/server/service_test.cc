// SelectionService unit tests against a tiny in-memory job configuration: typed
// errors for every refusal mode, per-tenant quota accounting, admission control,
// cross-request cache sharing (and its digest-keyed scoping), and the audit trail.
#include "src/server/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/obs/audit_log.h"
#include "src/server/client.h"
#include "src/util/json_reader.h"
#include "src/util/thread_pool.h"

namespace espresso::server {
namespace {

// Small enough that a selection is milliseconds, structured enough that the
// selector still has real choices to make.
constexpr const char* kModelIni = R"(
[model]
forward_ms = 10
optimizer_ms = 2
batch_size = 32
unit = samples/s
[tensors]
head = 4194304, 1.5
body = 1048576, 1.0
tail = 262144, 0.5
)";
constexpr const char* kGcIni = R"(
[compression]
algorithm = randomk
ratio = 0.01
)";
// A second compressor config = a different compression digest = a different
// evaluator configuration (used to prove cache-pool scoping).
constexpr const char* kGcAltIni = R"(
[compression]
algorithm = fp16
)";
// A third compression digest, for the cache pool's eviction order.
constexpr const char* kGcThirdIni = R"(
[compression]
algorithm = randomk
ratio = 0.05
)";
constexpr const char* kSystemIni = R"(
[cluster]
testbed = nvlink
machines = 2
gpus_per_machine = 2
)";

std::string Select(const std::string& id, const std::string& tenant,
                   const RequestBudget& budget = {}, const char* gc = kGcIni) {
  return BuildSelectRequest(id, tenant, kModelIni, gc, kSystemIni, budget);
}

// Parses a response and returns the error code ("" when ok).
std::string ErrorCode(const std::string& response) {
  const JsonParseResult parsed = ParseJson(response);
  EXPECT_TRUE(parsed.ok) << response;
  const JsonValue* ok = parsed.value.Find("ok");
  EXPECT_NE(ok, nullptr) << response;
  if (ok != nullptr && ok->IsBool() && ok->bool_value) {
    return "";
  }
  const JsonValue* error = parsed.value.Find("error");
  EXPECT_NE(error, nullptr) << response;
  const JsonValue* code = error != nullptr ? error->Find("code") : nullptr;
  return code != nullptr ? code->text : "<missing code>";
}

uint64_t TelemetryField(const std::string& response, const std::string& field) {
  const JsonParseResult parsed = ParseJson(response);
  EXPECT_TRUE(parsed.ok) << response;
  const JsonValue* telemetry = parsed.value.Find("telemetry");
  EXPECT_NE(telemetry, nullptr) << response;
  const JsonValue* value = telemetry != nullptr ? telemetry->Find(field) : nullptr;
  EXPECT_NE(value, nullptr) << field << " missing in " << response;
  uint64_t out = 0;
  EXPECT_TRUE(value == nullptr || value->AsUint64(&out)) << response;
  return out;
}

TEST(SelectionService, ServesAValidatedIr) {
  SelectionService service({}, nullptr);
  const std::string response = service.HandleRequest(Select("r1", "alice"));
  ASSERT_EQ(ErrorCode(response), "");
  const JsonParseResult parsed = ParseJson(response);
  const JsonValue* ir = parsed.value.Find("ir");
  ASSERT_NE(ir, nullptr);
  ASSERT_TRUE(ir->IsString());
  EXPECT_NE(ir->text.find("\"espresso_strategy_ir\""), std::string::npos);
  const JsonValue* validated = parsed.value.Find("validated");
  ASSERT_NE(validated, nullptr);
  EXPECT_TRUE(validated->bool_value);
  EXPECT_EQ(service.stats().served, 1u);
  EXPECT_GT(service.TenantUsed("alice"), 0u);
}

TEST(SelectionService, MalformedJsonIsATypedError) {
  SelectionService service({}, nullptr);
  EXPECT_EQ(ErrorCode(service.HandleRequest("this is not json")),
            "malformed-request");
  EXPECT_EQ(ErrorCode(service.HandleRequest("[1,2,3]")), "malformed-request");
  EXPECT_EQ(ErrorCode(service.HandleRequest("{\"type\":\"select\"}")),
            "malformed-request");  // no tenant
  EXPECT_EQ(ErrorCode(service.HandleRequest(
                "{\"type\":\"select\",\"tenant\":\"t\",\"config\":{}}")),
            "malformed-request");  // empty config payloads
  EXPECT_EQ(ErrorCode(service.HandleRequest("{\"type\":\"health\",\"id\":\"a\tb\"}")),
            "malformed-request");  // raw control byte inside a string
  EXPECT_EQ(service.stats().rejected, 5u);
}

TEST(SelectionService, UnsupportedTypeIsATypedError) {
  SelectionService service({}, nullptr);
  EXPECT_EQ(ErrorCode(service.HandleRequest("{\"type\":\"shutdown\"}")),
            "unsupported-type");
  EXPECT_EQ(ErrorCode(service.HandleRequest("{\"id\":\"x\"}")), "unsupported-type");
}

TEST(SelectionService, BadConfigIsATypedError) {
  SelectionService service({}, nullptr);
  const std::string request = BuildSelectRequest(
      "r", "t", kModelIni, "[compression]\nratio = 99\n", kSystemIni);
  EXPECT_EQ(ErrorCode(service.HandleRequest(request)), "bad-config");

  // Each of these once aborted the process further down the pipeline (unknown zoo
  // model or algorithm, a zero-lane CPU pool, a negative duration the simulator
  // reports as a dependency cycle) or was served as 2^64 - 1 machines.
  const std::string cluster = "[cluster]\ntestbed = nvlink\nmachines = 2\n";
  const std::vector<std::array<std::string, 3>> hostile = {
      {"[model]\nname = gpt3\n", kGcIni, kSystemIni},
      {kModelIni, "[compression]\nalgorithm = bogus\n", kSystemIni},
      {kModelIni, kGcIni, cluster + "cpu_workers_per_gpu = 0\n"},
      {kModelIni, kGcIni, cluster + "cpu_workers_per_gpu = -1\n"},
      {kModelIni, kGcIni, cluster + "intra_gbps = -1\n"},
      {kModelIni, kGcIni, cluster + "inter_gbps = -10\n"},
      {kModelIni, kGcIni, cluster + "intra_latency_us = -5\n"},
      {kModelIni, kGcIni, "[cluster]\ntestbed = nvlink\nmachines = -1\n"},
      // Values that do not parse were once served as if absent, with the default.
      {kModelIni, "[compression]\nalgorithm = dgc\nratio = 0,05\n", kSystemIni},
      {kModelIni, kGcIni, "[cluster]\ntestbed = nvlink\nmachines = four\n"},
      // A GPU count that wrapped to 0 and aborted the cost model; a billion CPU lanes
      // that ran the timeline out of memory; a tensor priced at 0 bytes.
      {kModelIni, kGcIni,
       "[cluster]\ntestbed = nvlink\nmachines = 4611686018427387904\ngpus_per_machine = 8\n"},
      {kModelIni, kGcIni,
       "[cluster]\ntestbed = nvlink\nmachines = 4294967296\ngpus_per_machine = 4294967296\n"},
      {kModelIni, kGcIni, cluster + "cpu_workers_per_gpu = 1000000000\n"},
      {"[tensors]\nw = 4611686018427387904, 1.0\n", kGcIni, kSystemIni}};
  for (size_t i = 0; i < hostile.size(); ++i) {
    const auto& [model, gc, system] = hostile[i];
    EXPECT_EQ(ErrorCode(service.HandleRequest(
                  BuildSelectRequest("bad-" + std::to_string(i), "t", model, gc, system))),
              "bad-config")
        << model << gc << system;
  }
  // The process survived every one; the next request is served normally.
  EXPECT_EQ(ErrorCode(service.HandleRequest(Select("ok", "t"))), "");
}

// Regression: the selector CHECK-aborts on compressors with content-dependent
// compressed sizes (threshold). Served unguarded, one such request killed the
// whole process; it must be a typed refusal instead.
TEST(SelectionService, NonDeterministicCompressorIsRefusedNotFatal) {
  SelectionService service({}, nullptr);
  const std::string request = BuildSelectRequest(
      "r", "t", kModelIni, "[compression]\nalgorithm = threshold\nthreshold = 0.01\n",
      kSystemIni);
  EXPECT_EQ(ErrorCode(service.HandleRequest(request)), "bad-config");
  // The process survived; the next request is served normally.
  EXPECT_EQ(ErrorCode(service.HandleRequest(Select("r2", "t"))), "");
}

TEST(SelectionService, OversizedPayloadIsATypedError) {
  ServiceConfig config;
  config.max_request_bytes = 64;
  SelectionService service(config, nullptr);
  EXPECT_EQ(ErrorCode(service.HandleRequest(Select("r", "t"))),
            "payload-too-large");
}

TEST(SelectionService, ExpiredDeadlineIsATypedError) {
  SelectionService service({}, nullptr);
  RequestBudget budget;
  budget.deadline_ms = 0;  // expires the moment it starts
  EXPECT_EQ(ErrorCode(service.HandleRequest(Select("r", "t", budget))),
            "deadline-expired");
  EXPECT_EQ(service.stats().served, 0u);
}

std::string ServedIr(const std::string& response) {
  const JsonParseResult parsed = ParseJson(response);
  const JsonValue* ir = parsed.ok ? parsed.value.Find("ir") : nullptr;
  return ir != nullptr ? ir->text : "";
}

// A thread budget no host has used to kill the process (std::bad_alloc sizing the
// selector's per-worker tables). It is clamped to the host's cores, and since threads
// is a bit-exact knob the served IR is the serial request's, byte for byte.
TEST(SelectionService, HostileThreadBudgetIsClampedNotFatal) {
  SelectionService service({}, nullptr);
  RequestBudget hostile;
  hostile.threads = int64_t{1} << 40;
  const std::string response = service.HandleRequest(Select("hostile", "alice", hostile));
  ASSERT_EQ(ErrorCode(response), "");
  EXPECT_LE(TelemetryField(response, "threads"), UsableCpus());

  RequestBudget serial;
  serial.threads = 0;
  const std::string reference = service.HandleRequest(Select("serial", "alice", serial));
  ASSERT_EQ(ErrorCode(reference), "");
  EXPECT_EQ(TelemetryField(reference, "threads"), 0u);
  EXPECT_FALSE(ServedIr(response).empty());
  EXPECT_EQ(ServedIr(response), ServedIr(reference));
}

// An offload budget past the service's cap (2^18) is refused where it is parsed.
// Uncapped, a budget above a triple's exhaustive Algorithm-2 space makes the selector
// materialize that whole space, and a large enough one killed the process in
// std::bad_alloc. 2^64-1 does not fit RequestBudget's int64_t, so it goes out as raw
// JSON.
TEST(SelectionService, HostileOffloadBudgetIsRefusedNotFatal) {
  SelectionService service({}, nullptr);
  RequestBudget hostile;
  hostile.offload_search_budget = 1'000'000'000'000;
  const std::string huge = service.HandleRequest(Select("huge", "alice", hostile));
  EXPECT_EQ(ErrorCode(huge), "malformed-request");
  EXPECT_NE(huge.find("at most 262144"), std::string::npos) << huge;

  RequestBudget marker;
  marker.offload_search_budget = 7;
  std::string max_request = Select("max", "alice", marker);
  const std::string field = "\"offload_search_budget\":7";
  const size_t at = max_request.find(field);
  ASSERT_NE(at, std::string::npos) << max_request;
  max_request.replace(at, field.size(), "\"offload_search_budget\":18446744073709551615");
  const std::string max = service.HandleRequest(max_request);
  EXPECT_EQ(ErrorCode(max), "malformed-request");
  EXPECT_NE(max.find("at most 262144"), std::string::npos) << max;

  RequestBudget at_cap;
  at_cap.offload_search_budget = int64_t{1} << 18;
  EXPECT_EQ(ErrorCode(service.HandleRequest(Select("cap", "alice", at_cap))), "");
  EXPECT_EQ(ErrorCode(service.HandleRequest(Select("plain", "alice"))), "");
}

TEST(SelectionService, OverCapacityIsATypedError) {
  ServiceConfig config;
  config.max_inflight = 0;  // no slots: every select is refused at admission
  SelectionService service(config, nullptr);
  EXPECT_EQ(ErrorCode(service.HandleRequest(Select("r", "t"))), "over-capacity");
}

TEST(SelectionService, QuotaExhaustionIsPerTenant) {
  ServiceConfig config;
  config.tenant_quotas["starved"] = 1;  // one evaluation — spent by any selection
  SelectionService service(config, nullptr);

  // First request is admitted (nothing used yet) and charges the real cost.
  EXPECT_EQ(ErrorCode(service.HandleRequest(Select("r1", "starved"))), "");
  EXPECT_GE(service.TenantUsed("starved"), 1u);
  // Second request finds the quota spent.
  EXPECT_EQ(ErrorCode(service.HandleRequest(Select("r2", "starved"))),
            "quota-exhausted");
  // An unrelated tenant (default quota: unlimited) is unaffected.
  EXPECT_EQ(ErrorCode(service.HandleRequest(Select("r3", "healthy"))), "");
}

TEST(SelectionService, WarmCacheIsSharedAcrossRequestsPerConfigTriple) {
  SelectionService service({}, nullptr);
  const std::string cold = service.HandleRequest(Select("r1", "alice"));
  ASSERT_EQ(ErrorCode(cold), "");
  const uint64_t cold_hits = TelemetryField(cold, "cache_hits");
  const uint64_t cold_sims = TelemetryField(cold, "simulations");

  // Second request, same config triple, DIFFERENT tenant: the digest-keyed cache
  // is shared, so every F(S) query and bubble set hits and nothing is simulated.
  const std::string warm = service.HandleRequest(Select("r2", "bob"));
  ASSERT_EQ(ErrorCode(warm), "");
  EXPECT_GT(TelemetryField(warm, "cache_hits"), cold_hits);
  EXPECT_GT(cold_sims, 0u);
  EXPECT_EQ(TelemetryField(warm, "simulations"), 0u);

  // A different compressor config is a different evaluator configuration: it must
  // get a FRESH cache (a fingerprint means nothing across configurations), so its
  // simulations are cold again.
  const std::string other =
      service.HandleRequest(Select("r3", "alice", {}, kGcAltIni));
  ASSERT_EQ(ErrorCode(other), "");
  EXPECT_GT(TelemetryField(other, "simulations"), 0u);
  EXPECT_EQ(service.stats().cached_configs, 2u);
}

TEST(SelectionService, CachePoolEvictsLeastRecentlyUsedConfig) {
  ServiceConfig config;
  config.max_cached_configs = 1;
  SelectionService service(config, nullptr);
  const std::string cold = service.HandleRequest(Select("r1", "t"));
  ASSERT_EQ(ErrorCode(cold), "");
  ASSERT_EQ(ErrorCode(service.HandleRequest(Select("r2", "t", {}, kGcAltIni))), "");
  EXPECT_EQ(service.stats().cached_configs, 1u);
  // The original triple was evicted; selecting it again re-simulates from cold —
  // selection is deterministic, so a truly fresh cache repeats the cold counts.
  const std::string again = service.HandleRequest(Select("r3", "t"));
  ASSERT_EQ(ErrorCode(again), "");
  EXPECT_EQ(TelemetryField(again, "simulations"), TelemetryField(cold, "simulations"));
}

TEST(SelectionService, CachePoolEvictsByRecencyNotInsertionOrder) {
  ServiceConfig config;
  config.max_cached_configs = 2;
  SelectionService service(config, nullptr);
  ASSERT_EQ(ErrorCode(service.HandleRequest(Select("a1", "t"))), "");
  const std::string cold_b = service.HandleRequest(Select("b1", "t", {}, kGcAltIni));
  ASSERT_EQ(ErrorCode(cold_b), "");
  ASSERT_GT(TelemetryField(cold_b, "simulations"), 0u);
  // Using A again makes B the least recently used, so C evicts B although A is older.
  ASSERT_EQ(ErrorCode(service.HandleRequest(Select("a2", "t"))), "");
  ASSERT_EQ(ErrorCode(service.HandleRequest(Select("c1", "t", {}, kGcThirdIni))), "");
  EXPECT_EQ(service.stats().cached_configs, 2u);
  const std::string warm_a = service.HandleRequest(Select("a3", "t"));
  ASSERT_EQ(ErrorCode(warm_a), "");
  EXPECT_EQ(TelemetryField(warm_a, "simulations"), 0u);
  const std::string again_b = service.HandleRequest(Select("b2", "t", {}, kGcAltIni));
  ASSERT_EQ(ErrorCode(again_b), "");
  EXPECT_EQ(TelemetryField(again_b, "simulations"), TelemetryField(cold_b, "simulations"));
}

TEST(SelectionService, AuditsServedAndRejectedRequests) {
  const std::string path = ::testing::TempDir() + "/service_audit.jsonl";
  std::remove(path.c_str());
  obs::AuditLog audit;
  ASSERT_TRUE(audit.Open(path));
  SelectionService service({}, &audit);
  ASSERT_EQ(ErrorCode(service.HandleRequest(Select("ok-req", "alice"))), "");
  ASSERT_EQ(ErrorCode(service.HandleRequest("garbage")), "malformed-request");
  std::vector<std::string> entries;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    entries.push_back(line);
  }
  std::remove(path.c_str());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NE(entries[0].find("\"event\":\"serve\""), std::string::npos) << entries[0];
  EXPECT_NE(entries[0].find("\"id\":\"ok-req\""), std::string::npos);
  EXPECT_NE(entries[0].find("\"tenant\":\"alice\""), std::string::npos);
  EXPECT_NE(entries[0].find("\"payload_digest\":"), std::string::npos);
  EXPECT_NE(entries[1].find("\"event\":\"reject\""), std::string::npos) << entries[1];
  EXPECT_NE(entries[1].find("\"code\":\"malformed-request\""), std::string::npos);
}

TEST(SelectionService, HealthReportsCountersAndAuditState) {
  obs::AuditLog audit;
  SelectionService service({}, &audit);
  ASSERT_EQ(ErrorCode(service.HandleRequest(Select("r", "t"))), "");
  const std::string response =
      service.HandleRequest(BuildHealthRequest("h1"));
  const JsonParseResult parsed = ParseJson(response);
  ASSERT_TRUE(parsed.ok) << response;
  const JsonValue* served = parsed.value.Find("served");
  ASSERT_NE(served, nullptr);
  uint64_t count = 0;
  ASSERT_TRUE(served->AsUint64(&count));
  EXPECT_EQ(count, 1u);
  const JsonValue* audit_failed = parsed.value.Find("audit_write_failed");
  ASSERT_NE(audit_failed, nullptr);
  EXPECT_FALSE(audit_failed->bool_value);
}

TEST(SelectionService, MetricsScrapeRoundTrips) {
  SelectionService service({}, nullptr);
  ASSERT_EQ(ErrorCode(service.HandleRequest(Select("r", "t"))), "");
  const std::string response =
      service.HandleRequest(BuildMetricsRequest("m1", "prometheus"));
  const JsonParseResult parsed = ParseJson(response);
  ASSERT_TRUE(parsed.ok) << response;
  const JsonValue* body = parsed.value.Find("body");
  ASSERT_NE(body, nullptr);
  ASSERT_TRUE(body->IsString());
  EXPECT_NE(body->text.find("espresso_serve_served_total"), std::string::npos);
  EXPECT_EQ(ErrorCode(service.HandleRequest(BuildMetricsRequest("m2", "xml"))),
            "malformed-request");
}

}  // namespace
}  // namespace espresso::server
