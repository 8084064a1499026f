// A mixed kBatchRequest — reads interleaved with mutations — must behave
// exactly like its parts sent one at a time. The batch runs under one
// dispatch-lock hold and publishes a snapshot before each read leg, so a
// read sees every earlier write of its batch and a scan miss memoizes
// into the live index. A twin server receives the same parts one by one;
// every response (proofs an Enforce client accepted included) and every
// observation-log entry must be byte-identical.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/client.h"
#include "crypto/random.h"
#include "protocol/messages.h"
#include "server/untrusted_server.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

Schema TableSchema() {
  auto s = Schema::Create({
      {"key", ValueType::kString, 8},
      {"grp", ValueType::kInt64, 10},
  });
  EXPECT_TRUE(s.ok());
  return *s;
}

Relation BuildTable(size_t n) {
  Relation table("T", TableSchema());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table.Insert({Value::Str("k" + std::to_string(i)),
                              Value::Int(static_cast<int64_t>(i % 4))})
                    .ok());
  }
  return table;
}

int64_t Gauge(const obs::RegistrySnapshot& stats, const std::string& name) {
  auto it = stats.gauges.find(name);
  return it == stats.gauges.end() ? -1 : it->second;
}

obs::RegistrySnapshot ParseStats(const protocol::Envelope& response) {
  EXPECT_EQ(response.type, protocol::MessageType::kStatsResult);
  ByteReader reader(response.payload);
  auto stats = obs::RegistrySnapshot::ReadFrom(&reader);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return stats.ok() ? *stats : obs::RegistrySnapshot{};
}

TEST(MixedBatchTest, MatchesTheSamePartsSentOneAtATime) {
  server::ServerRuntimeOptions options;
  options.num_threads = 2;
  server::UntrustedServer batched(options);
  server::UntrustedServer twin(options);

  // The client talks to the twin. While `mirror` is set every request
  // also goes to the batched server (identical state through setup);
  // afterwards requests are recorded for the batch instead.
  bool mirror = true;
  std::vector<Bytes> requests;
  std::vector<Bytes> twin_responses;
  crypto::HmacDrbg rng("mixed-batch", 3);
  client::Client client(
      ToBytes("mixed master"),
      [&](const Bytes& request) {
        Bytes response = twin.HandleRequest(request);
        if (mirror) {
          EXPECT_EQ(batched.HandleRequest(request), response);
        } else {
          requests.push_back(request);
          twin_responses.push_back(response);
        }
        return response;
      },
      &rng);
  client.set_verify_mode(client::VerifyMode::kEnforce);
  ASSERT_TRUE(client.Outsource(BuildTable(40)).ok());
  ASSERT_TRUE(client.Select("T", "grp", Value::Int(1)).ok());

  // append r, select r's fresh trapdoor, explain it, fetch, delete r,
  // select it again, stats — each verified under Enforce on the twin.
  mirror = false;
  const Value fresh = Value::Str("fresh");
  ASSERT_TRUE(client.Insert("T", {Tuple({fresh, Value::Int(9)})}).ok());
  auto selected = client.Select("T", "key", fresh);
  ASSERT_TRUE(selected.ok()) << selected.status();
  EXPECT_EQ(selected->size(), 1u);
  auto plan = client.Explain("T", "key", fresh);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->access_path, protocol::PlanAccessPath::kIndexLookup);
  auto recalled = client.Recall("T");
  ASSERT_TRUE(recalled.ok()) << recalled.status();
  EXPECT_EQ(recalled->size(), 41u);
  auto removed = client.DeleteWhere("T", "key", fresh);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(*removed, 1u);
  auto again = client.Select("T", "key", fresh);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->empty());
  ASSERT_TRUE(client.Stats().ok());

  // The same parts as one batch against the batched server.
  std::vector<protocol::Envelope> parts;
  for (const Bytes& request : requests) {
    auto part = protocol::Envelope::Parse(request);
    ASSERT_TRUE(part.ok());
    parts.push_back(std::move(*part));
  }
  ASSERT_GT(parts.size(), 7u);  // verified mutations add kAttestRoot legs
  protocol::Envelope batch;
  batch.type = protocol::MessageType::kBatchRequest;
  batch.payload = protocol::SerializeBatchPayload(parts);
  auto response =
      protocol::Envelope::Parse(batched.HandleRequest(batch.Serialize()));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->type, protocol::MessageType::kBatchResponse);
  auto replies = protocol::ParseBatchPayload(response->payload);
  ASSERT_TRUE(replies.ok()) << replies.status();
  ASSERT_EQ(replies->size(), parts.size());

  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].type == protocol::MessageType::kStats) {
      // Timings and op counters differ by construction (one batch vs
      // many requests); the state-derived gauges must not.
      auto twin_reply = protocol::Envelope::Parse(twin_responses[i]);
      ASSERT_TRUE(twin_reply.ok());
      obs::RegistrySnapshot a = ParseStats((*replies)[i]);
      obs::RegistrySnapshot b = ParseStats(*twin_reply);
      for (const char* gauge :
           {"dbph_server_relations", "dbph_index_trapdoors",
            "dbph_index_postings", "dbph_index_hits", "dbph_index_misses",
            "dbph_index_memoized"}) {
        EXPECT_EQ(Gauge(a, gauge), Gauge(b, gauge)) << gauge;
      }
      // The in-batch scan miss memoized: the select after the delete
      // took the index path.
      EXPECT_EQ(Gauge(a, "dbph_index_hits"), 1);
      continue;
    }
    EXPECT_EQ((*replies)[i].Serialize(), twin_responses[i])
        << "part " << i << " (type "
        << static_cast<int>(parts[i].type) << ")";
  }

  const auto& a = batched.observations();
  const auto& b = twin.observations();
  ASSERT_EQ(a.queries().size(), b.queries().size());
  for (size_t i = 0; i < a.queries().size(); ++i) {
    EXPECT_EQ(a.queries()[i].relation, b.queries()[i].relation);
    EXPECT_EQ(a.queries()[i].trapdoor_bytes, b.queries()[i].trapdoor_bytes);
    EXPECT_EQ(a.queries()[i].matched_records, b.queries()[i].matched_records)
        << "observation " << i;
  }
  ASSERT_EQ(a.stores().size(), b.stores().size());
  for (size_t i = 0; i < a.stores().size(); ++i) {
    EXPECT_EQ(a.stores()[i].num_documents, b.stores()[i].num_documents);
    EXPECT_EQ(a.stores()[i].ciphertext_bytes, b.stores()[i].ciphertext_bytes);
  }

  // And the batch left both servers in the same state.
  EXPECT_EQ(batched.SerializeState().value(), twin.SerializeState().value());
}

}  // namespace
}  // namespace dbph
