// The parallel batch runtime must be a pure performance feature: batched
// and sharded execution has to produce byte-identical results and an
// unchanged observation log relative to one-at-a-time selects, under any
// thread/shard configuration and under concurrent clients.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "client/client.h"
#include "crypto/random.h"
#include "dbph/scheme.h"
#include "protocol/messages.h"
#include "server/runtime/thread_pool.h"
#include "server/snapshot.h"
#include "server/untrusted_server.h"
#include "swp/search.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
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

/// `n` rows, grp = i % 10 (each group matches n/10 rows).
Relation BuildTable(size_t n) {
  Relation table("T", TableSchema());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table.Insert({Value::Str("k" + std::to_string(i)),
                              Value::Int(static_cast<int64_t>(i % 10))})
                    .ok());
  }
  return table;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  server::runtime::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForFromWithinATaskDoesNotDeadlock) {
  server::runtime::ThreadPool pool(2);
  std::atomic<int> total{0};
  // Nested waves: the outer caller participates, so even a fully busy
  // pool makes progress.
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

/// `docs` written into sealed chunks of at most `per_chunk` documents
/// (record id = position + 1), the layout appends build.
server::DocumentChunks Chunked(const std::vector<swp::EncryptedDocument>& docs,
                               uint32_t check_length, size_t per_chunk) {
  server::DocumentChunks chunks;
  chunks.check_length = check_length;
  for (size_t first = 0; first < docs.size(); first += per_chunk) {
    server::ChunkWriter writer(&chunks);
    for (size_t i = first; i < std::min(first + per_chunk, docs.size());
         ++i) {
      writer.Add(i + 1, docs[i]);
    }
    writer.Finish();
  }
  return chunks;
}

TEST(DocumentScanTest, AnyShardCountReproducesSequentialScan) {
  crypto::HmacDrbg rng("sharded", 1);
  auto ph = core::DatabasePh::Create(TableSchema(), ToBytes("key"));
  ASSERT_TRUE(ph.ok());
  auto encrypted = ph->EncryptRelation(BuildTable(101), &rng);
  ASSERT_TRUE(encrypted.ok());
  auto query = ph->EncryptQuery("T", "grp", Value::Int(3));
  ASSERT_TRUE(query.ok());

  // Baseline: the sequential scalar sweep, document by document.
  swp::SwpParams params;
  params.word_length = query->trapdoor.target.size();
  params.check_length = encrypted->check_length;
  std::vector<uint64_t> expected;
  for (size_t i = 0; i < encrypted->documents.size(); ++i) {
    if (!swp::SearchDocument(params, query->trapdoor, encrypted->documents[i])
             .empty()) {
      expected.push_back(i);
    }
  }
  ASSERT_FALSE(expected.empty());

  server::runtime::ThreadPool pool(3);
  for (size_t per_chunk : {101u, 17u}) {
    server::DocumentChunks chunks =
        Chunked(encrypted->documents, encrypted->check_length, per_chunk);
    for (size_t shards : {1u, 2u, 3u, 7u, 101u, 500u}) {
      for (bool pooled : {false, true}) {
        std::vector<server::SnapshotMatch> got;
        chunks.Scan(query->trapdoor, shards, pooled ? &pool : nullptr, &got);
        ASSERT_EQ(got.size(), expected.size()) << shards << " shards";
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].position, expected[i]);
          EXPECT_EQ(got[i].record_id, expected[i] + 1);
          Bytes b;
          encrypted->documents[expected[i]].AppendTo(&b);
          EXPECT_EQ(Bytes(got[i].bytes.begin(), got[i].bytes.end()), b);
        }
      }
    }
  }
}

/// Deploys one (server, client) pair over deterministic randomness so two
/// deployments hold byte-identical ciphertext.
struct Deployment {
  explicit Deployment(server::ServerRuntimeOptions options = {})
      : server(options),
        rng("parallel-fixture", 7),
        client(ToBytes("master"),
               [this](const Bytes& request) {
                 return server.HandleRequest(request);
               },
               &rng) {}

  server::UntrustedServer server;
  crypto::HmacDrbg rng;
  client::Client client;
};

TEST(BatchSelectTest, BatchedResultsAndLogMatchSequential) {
  server::ServerRuntimeOptions parallel;
  parallel.num_threads = 4;
  Deployment seq;        // default runtime
  Deployment par(parallel);
  Relation table = BuildTable(200);
  ASSERT_TRUE(seq.client.Outsource(table).ok());
  ASSERT_TRUE(par.client.Outsource(table).ok());

  std::vector<std::pair<std::string, Value>> queries;
  for (int g = 0; g < 10; ++g) queries.emplace_back("grp", Value::Int(g));

  // Sequential baseline: one Select per query.
  std::vector<Relation> expected;
  for (const auto& [attribute, value] : queries) {
    auto r = seq.client.Select("T", attribute, value);
    ASSERT_TRUE(r.ok()) << r.status();
    expected.push_back(std::move(*r));
  }
  // One batched round trip.
  auto got = par.client.SelectBatch("T", queries);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*got)[i].size(), expected[i].size()) << "query " << i;
    EXPECT_TRUE((*got)[i].SameTuples(expected[i])) << "query " << i;
  }

  // Eve's view is unchanged: same number of query observations, and the
  // matched identities per query are identical (ciphertexts are
  // byte-identical across the two deployments by DRBG construction).
  const auto& seq_log = seq.server.observations().queries();
  const auto& par_log = par.server.observations().queries();
  ASSERT_EQ(par_log.size(), seq_log.size());
  for (size_t i = 0; i < seq_log.size(); ++i) {
    EXPECT_EQ(par_log[i].relation, seq_log[i].relation);
    EXPECT_EQ(par_log[i].trapdoor_bytes, seq_log[i].trapdoor_bytes);
    EXPECT_EQ(par_log[i].matched_records, seq_log[i].matched_records);
  }
}

TEST(BatchSelectTest, UnknownRelationFailsBatchWithoutLogging) {
  Deployment d;
  ASSERT_TRUE(d.client.Outsource(BuildTable(10)).ok());
  size_t before = d.server.observations().queries().size();
  EXPECT_FALSE(d.client.SelectBatch("Nope", {{"grp", Value::Int(1)}}).ok());
  EXPECT_EQ(d.server.observations().queries().size(), before);
}

TEST(BatchSelectTest, MixedBatchExecutesInOrder) {
  // A delete between two selects of the same value must act as a
  // barrier: the first select sees the rows, the second does not.
  Deployment d;
  ASSERT_TRUE(d.client.Outsource(BuildTable(50)).ok());
  auto scheme = d.client.SchemeFor("T");
  ASSERT_TRUE(scheme.ok());
  auto query = (*scheme)->EncryptQuery("T", "grp", Value::Int(4));
  ASSERT_TRUE(query.ok());

  protocol::Envelope select;
  select.type = protocol::MessageType::kSelect;
  query->AppendTo(&select.payload);
  protocol::Envelope del;
  del.type = protocol::MessageType::kDeleteWhere;
  query->AppendTo(&del.payload);

  protocol::Envelope batch;
  batch.type = protocol::MessageType::kBatchRequest;
  batch.payload = protocol::SerializeBatchPayload({select, del, select});
  auto response = protocol::Envelope::Parse(
      d.server.HandleRequest(batch.Serialize()));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->type, protocol::MessageType::kBatchResponse);
  auto replies = protocol::ParseBatchPayload(response->payload);
  ASSERT_TRUE(replies.ok()) << replies.status();
  ASSERT_EQ(replies->size(), 3u);

  EXPECT_EQ((*replies)[0].type, protocol::MessageType::kSelectResult);
  EXPECT_EQ((*replies)[1].type, protocol::MessageType::kDeleteResult);
  EXPECT_EQ((*replies)[2].type, protocol::MessageType::kSelectResult);
  ByteReader first((*replies)[0].payload);
  ByteReader last((*replies)[2].payload);
  EXPECT_EQ(*first.ReadUint32(), 5u);  // 50 rows, grp = i % 10
  EXPECT_EQ(*last.ReadUint32(), 0u);   // deleted in between
}

TEST(BatchSelectTest, ConcurrentBatchedClientsMatchSequentialBaseline) {
  // N threads x M batched selects against one server; every result must
  // equal the sequential baseline and the log must hold exactly one
  // entry per executed query.
  constexpr size_t kThreads = 4;
  constexpr size_t kBatchesPerThread = 3;

  server::ServerRuntimeOptions options;
  options.num_threads = 2;
  Deployment d(options);
  Relation table = BuildTable(120);
  ASSERT_TRUE(d.client.Outsource(table).ok());

  std::vector<std::pair<std::string, Value>> queries;
  for (int g = 0; g < 10; ++g) queries.emplace_back("grp", Value::Int(g));
  std::vector<Relation> baseline;
  for (const auto& [attribute, value] : queries) {
    auto r = table.Select(attribute, value);
    ASSERT_TRUE(r.ok());
    baseline.push_back(std::move(*r));
  }
  size_t queries_before = d.server.observations().queries().size();

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t m = 0; m < kBatchesPerThread; ++m) {
        auto got = d.client.SelectBatch("T", queries);
        if (!got.ok() || got->size() != baseline.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < baseline.size(); ++i) {
          if (!(*got)[i].SameTuples(baseline[i])) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(d.server.observations().queries().size(),
            queries_before + kThreads * kBatchesPerThread * queries.size());
}

TEST(DocumentScanTest, NullPoolRunsInline) {
  crypto::HmacDrbg rng("executor", 2);
  auto ph = core::DatabasePh::Create(TableSchema(), ToBytes("key"));
  ASSERT_TRUE(ph.ok());
  auto encrypted = ph->EncryptRelation(BuildTable(30), &rng);
  ASSERT_TRUE(encrypted.ok());
  server::DocumentChunks chunks =
      Chunked(encrypted->documents, encrypted->check_length, 30);
  auto query = ph->EncryptQuery("T", "grp", Value::Int(1));
  ASSERT_TRUE(query.ok());

  std::vector<server::SnapshotMatch> matches;
  chunks.Scan(query->trapdoor, 3, /*pool=*/nullptr, &matches);
  EXPECT_EQ(matches.size(), 3u);  // 30 rows, grp = i % 10
}

TEST(BatchSelectTest, UnresolvedQueriesFailAloneInAWave) {
  // One wave, one known and one unknown relation: the known query is
  // answered and logged, the unknown one fails without an entry.
  Deployment d;
  ASSERT_TRUE(d.client.Outsource(BuildTable(30)).ok());
  auto scheme = d.client.SchemeFor("T");
  ASSERT_TRUE(scheme.ok());
  auto known = (*scheme)->EncryptQuery("T", "grp", Value::Int(1));
  ASSERT_TRUE(known.ok());
  core::EncryptedQuery unknown = *known;
  unknown.relation = "Nope";
  size_t before = d.server.observations().queries().size();

  auto results = d.server.SelectBatch({*known, unknown});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0]->size(), 3u);
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(d.server.observations().queries().size(), before + 1);
}

}  // namespace
}  // namespace dbph
