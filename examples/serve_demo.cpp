// serve_demo: the reference client for espresso_serve (docs/SERVICE.md), and the
// driver CI's release smoke uses to exercise the service end to end.
//
// Usage:
//   serve_demo <port|@port-file> <model.ini> <gc.ini> <system.ini>
//              [--tenant=<name>] [--id=<id>] [--repeat=N] [--deadline-ms=N]
//              [--threads=N] [--offload-search-budget=N] [--ir-out=<file>]
//              [--metrics-out=<file>] [--json-metrics]
//
// Sends one select request per --repeat (default 1) carrying the three INI files'
// contents, prints the served digest and telemetry, and writes the LAST response's
// IR document to --ir-out — byte-identical to `espresso_cli --ir-out` on the same
// files, so downstream gates (strategy_lint --ir) apply unchanged. --metrics-out
// scrapes the server's metrics over the same connection. Exits 0 only if every
// request was served and the final health check reports a healthy audit stream.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/server/client.h"
#include "src/util/json_reader.h"
#include "src/util/parse_number.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace espresso;

  std::vector<const char*> positional;
  std::string tenant = "demo";
  std::string id = "serve-demo";
  std::string ir_out;
  std::string metrics_out;
  bool json_metrics = false;
  uint64_t repeat = 1;
  server::RequestBudget budget;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tenant=", 0) == 0) {
      tenant = arg.substr(9);
    } else if (arg.rfind("--id=", 0) == 0) {
      id = arg.substr(5);
    } else if (arg.rfind("--ir-out=", 0) == 0) {
      ir_out = arg.substr(9);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg == "--json-metrics") {
      json_metrics = true;
    } else if (arg.rfind("--repeat=", 0) == 0) {
      if (ParseUint64(arg.substr(9), &repeat) != NumberParse::kOk || repeat == 0) {
        std::cerr << "error: --repeat expects a positive integer\n";
        return 2;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      int64_t ms = 0;
      if (ParseInt64(arg.substr(14), &ms) != NumberParse::kOk) {
        std::cerr << "error: --deadline-ms expects an integer\n";
        return 2;
      }
      budget.deadline_ms = ms;
    } else if (arg.rfind("--threads=", 0) == 0) {
      int64_t threads = 0;
      if (ParseInt64(arg.substr(10), &threads) != NumberParse::kOk) {
        std::cerr << "error: --threads expects an integer\n";
        return 2;
      }
      budget.threads = threads;
    } else if (arg.rfind("--offload-search-budget=", 0) == 0) {
      int64_t offload_budget = 0;
      if (ParseInt64(arg.substr(24), &offload_budget) != NumberParse::kOk) {
        std::cerr << "error: --offload-search-budget expects an integer\n";
        return 2;
      }
      budget.offload_search_budget = offload_budget;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag " << arg << "\n";
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() != 4) {
    std::cerr << "usage: " << argv[0]
              << " <port|@port-file> <model.ini> <gc.ini> <system.ini>"
              << " [--tenant=<name>] [--id=<id>] [--repeat=N] [--deadline-ms=N]"
              << " [--threads=N] [--offload-search-budget=N] [--ir-out=<file>]"
              << " [--metrics-out=<file>] [--json-metrics]\n";
    return 2;
  }

  std::string port_text = positional[0];
  if (!port_text.empty() && port_text[0] == '@') {
    std::string content;
    if (!ReadFile(port_text.substr(1), &content)) {
      std::cerr << "error: cannot read port file " << port_text.substr(1) << "\n";
      return 1;
    }
    // The port file is one decimal line.
    while (!content.empty() && (content.back() == '\n' || content.back() == '\r')) {
      content.pop_back();
    }
    port_text = content;
  }
  uint64_t port = 0;
  if (ParseUint64(port_text, &port) != NumberParse::kOk || port == 0 || port > 65535) {
    std::cerr << "error: '" << port_text << "' is not a TCP port\n";
    return 2;
  }

  std::string model_ini;
  std::string gc_ini;
  std::string system_ini;
  for (const auto& [path, out] :
       {std::pair<const char*, std::string*>{positional[1], &model_ini},
        {positional[2], &gc_ini},
        {positional[3], &system_ini}}) {
    if (!ReadFile(path, out)) {
      std::cerr << "error: cannot read " << path << "\n";
      return 1;
    }
  }

  server::ServeClient client;
  std::string error;
  if (!client.Connect(static_cast<uint16_t>(port), &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }

  std::string ir_text;
  for (uint64_t round = 0; round < repeat; ++round) {
    const std::string request =
        server::BuildSelectRequest(id + "-" + std::to_string(round), tenant,
                                   model_ini, gc_ini, system_ini, budget);
    std::string response;
    if (!client.Call(request, &response, &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    const JsonParseResult parsed = ParseJson(response);
    if (!parsed.ok) {
      std::cerr << "error: response is not valid JSON: " << parsed.error << "\n";
      return 1;
    }
    const JsonValue* ok = parsed.value.Find("ok");
    if (ok == nullptr || !ok->IsBool() || !ok->bool_value) {
      const JsonValue* err = parsed.value.Find("error");
      const JsonValue* code = err != nullptr ? err->Find("code") : nullptr;
      const JsonValue* message = err != nullptr ? err->Find("message") : nullptr;
      std::cerr << "refused: " << (code != nullptr ? code->text : "unknown") << ": "
                << (message != nullptr ? message->text : response) << "\n";
      return 1;
    }
    const JsonValue* ir = parsed.value.Find("ir");
    const JsonValue* digest = parsed.value.Find("payload_digest");
    const JsonValue* telemetry = parsed.value.Find("telemetry");
    const JsonValue* hits =
        telemetry != nullptr ? telemetry->Find("cache_hits") : nullptr;
    const JsonValue* evals =
        telemetry != nullptr ? telemetry->Find("evaluations") : nullptr;
    if (ir == nullptr || !ir->IsString() || digest == nullptr) {
      std::cerr << "error: served response carries no IR\n";
      return 1;
    }
    ir_text = ir->text;
    std::cout << "served round " << round << ": payload digest " << digest->text
              << ", " << (evals != nullptr ? evals->text : "?") << " evaluations, "
              << (hits != nullptr ? hits->text : "?") << " cache hits\n";
  }

  if (!ir_out.empty()) {
    std::ofstream out(ir_out, std::ios::binary);
    out << ir_text;
    if (!out) {
      std::cerr << "error: cannot write " << ir_out << "\n";
      return 1;
    }
    std::cout << "IR written to " << ir_out << "\n";
  }

  if (!metrics_out.empty()) {
    std::string response;
    if (!client.Call(server::BuildMetricsRequest(id, json_metrics ? "json" : "prometheus"),
                     &response, &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    const JsonParseResult parsed = ParseJson(response);
    const JsonValue* body = parsed.ok ? parsed.value.Find("body") : nullptr;
    if (body == nullptr || !body->IsString()) {
      std::cerr << "error: metrics response carries no body\n";
      return 1;
    }
    std::ofstream out(metrics_out, std::ios::binary);
    out << body->text;
    if (!out) {
      std::cerr << "error: cannot write " << metrics_out << "\n";
      return 1;
    }
    std::cout << "Metrics written to " << metrics_out << "\n";
  }

  std::string response;
  if (!client.Call(server::BuildHealthRequest(id), &response, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  const JsonParseResult health = ParseJson(response);
  const JsonValue* audit_failed =
      health.ok ? health.value.Find("audit_write_failed") : nullptr;
  if (audit_failed != nullptr && audit_failed->IsBool() && audit_failed->bool_value) {
    std::cerr << "error: server reports a degraded audit stream\n";
    return 1;
  }
  std::cout << "health: ok\n";
  return 0;
}
