// Planner-layer coverage: the trapdoor posting-list index must be purely
// a performance decision. Whatever access path the planner picks, the
// documents returned (bytes and order) and the observation-log entries
// recorded must be identical to a sequential full scan — across selects,
// batches with duplicate trapdoors, appends, deletes, and recovery. Also
// covers EXPLAIN (kExplain / PlanReport) and the bounded observation
// mode.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "crypto/random.h"
#include "dbph/scheme.h"
#include "server/untrusted_server.h"
#include "sql/executor.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Value;
using rel::ValueType;
using protocol::PlanAccessPath;

Schema TableSchema() {
  auto s = Schema::Create({
      {"name", ValueType::kString, 8},
      {"grp", ValueType::kInt64, 10},
  });
  EXPECT_TRUE(s.ok());
  return *s;
}

Relation BuildTable(size_t n) {
  Relation table("T", TableSchema());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table.Insert({Value::Str("n" + std::to_string(i)),
                              Value::Int(static_cast<int64_t>(i % 5))})
                    .ok());
  }
  return table;
}

/// Full equality of two observation logs, entry by entry.
void ExpectSameLogs(const server::ObservationLog& a,
                    const server::ObservationLog& b,
                    const std::string& context) {
  ASSERT_EQ(a.queries().size(), b.queries().size()) << context;
  for (size_t i = 0; i < a.queries().size(); ++i) {
    const auto& qa = a.queries()[i];
    const auto& qb = b.queries()[i];
    EXPECT_EQ(qa.relation, qb.relation) << context << " query " << i;
    EXPECT_EQ(qa.trapdoor_bytes, qb.trapdoor_bytes) << context << " query "
                                                    << i;
    EXPECT_EQ(qa.matched_records, qb.matched_records) << context << " query "
                                                      << i;
  }
  ASSERT_EQ(a.stores().size(), b.stores().size()) << context;
  for (size_t i = 0; i < a.stores().size(); ++i) {
    EXPECT_EQ(a.stores()[i].relation, b.stores()[i].relation) << context;
    EXPECT_EQ(a.stores()[i].num_documents, b.stores()[i].num_documents)
        << context;
    EXPECT_EQ(a.stores()[i].ciphertext_bytes, b.stores()[i].ciphertext_bytes)
        << context;
  }
}

// ---------------- select pipeline + index maintenance ----------------

/// A tiny encrypted relation stored on two servers — trapdoor index on
/// and off — and driven through the typed API (Select, SelectBatch,
/// Explain, AppendTuples, DeleteWhere). The index-off server is the
/// oracle: every select must return byte-identical documents from both,
/// whichever access path the index-on server took.
class PlannerStorageTest : public ::testing::Test {
 protected:
  void SetUp() override { Deploy(server::ServerRuntimeOptions{}); }

  /// (Re)creates both servers with `options` (index forced on / off)
  /// and stores the same 40-row ciphertext on each.
  void Deploy(server::ServerRuntimeOptions options) {
    crypto::HmacDrbg rng("planner-storage", 7);
    auto ph = core::DatabasePh::Create(TableSchema(), ToBytes("planner key"));
    ASSERT_TRUE(ph.ok());
    ph_ = std::make_unique<core::DatabasePh>(std::move(*ph));
    auto encrypted = ph_->EncryptRelation(BuildTable(40), &rng);
    ASSERT_TRUE(encrypted.ok());
    options.num_threads = 1;
    options.num_shards = 3;
    options.enable_trapdoor_index = true;
    on_ = std::make_unique<server::UntrustedServer>(options);
    options.enable_trapdoor_index = false;
    off_ = std::make_unique<server::UntrustedServer>(options);
    ASSERT_TRUE(on_->StoreRelation(*encrypted).ok());
    ASSERT_TRUE(off_->StoreRelation(*encrypted).ok());
  }

  core::EncryptedQuery Query(const std::string& attribute,
                             const Value& value) {
    auto q = ph_->EncryptQuery("T", attribute, value);
    EXPECT_TRUE(q.ok());
    return *q;
  }

  /// Selects on both servers; asserts byte-identical documents (same
  /// bytes, same order) and returns them.
  std::vector<Bytes> Select(const core::EncryptedQuery& query,
                            const std::string& context) {
    auto with = on_->Select(query);
    auto without = off_->Select(query);
    EXPECT_TRUE(with.ok()) << context << ": " << with.status();
    EXPECT_TRUE(without.ok()) << context << ": " << without.status();
    if (!with.ok() || !without.ok()) return {};
    std::vector<Bytes> a = Serialize(*with);
    EXPECT_EQ(a, Serialize(*without)) << context;
    return a;
  }

  /// The plan the index-on server would run for `query` right now.
  protocol::PlanReport Explain(const core::EncryptedQuery& query) {
    auto report = on_->Explain(query);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? *report : protocol::PlanReport{};
  }

  int64_t Gauge(const std::string& name) {
    return on_->CollectStats().gauges.at(name);
  }

  /// Appends the same 10 freshly encrypted rows (two per group) to both
  /// servers.
  void AppendTen(uint64_t seed) {
    crypto::HmacDrbg rng("planner-append", seed);
    auto extra = ph_->EncryptRelation(BuildTable(10), &rng);
    ASSERT_TRUE(extra.ok());
    ASSERT_TRUE(on_->AppendTuples("T", extra->documents).ok());
    ASSERT_TRUE(off_->AppendTuples("T", extra->documents).ok());
  }

  static std::vector<Bytes> Serialize(
      const std::vector<swp::EncryptedDocument>& docs) {
    std::vector<Bytes> out(docs.size());
    for (size_t i = 0; i < docs.size(); ++i) docs[i].AppendTo(&out[i]);
    return out;
  }

  std::unique_ptr<core::DatabasePh> ph_;
  std::unique_ptr<server::UntrustedServer> on_;
  std::unique_ptr<server::UntrustedServer> off_;
};

TEST_F(PlannerStorageTest, FirstScanMemoizesSecondHitsIndexIdentically) {
  core::EncryptedQuery query = Query("grp", Value::Int(2));
  auto plan = Explain(query);
  EXPECT_EQ(plan.access_path, PlanAccessPath::kFullScan);
  EXPECT_TRUE(plan.will_memoize);

  std::vector<Bytes> first = Select(query, "first (scan)");
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(Gauge("dbph_index_trapdoors"), 1);
  EXPECT_EQ(Gauge("dbph_index_misses"), 1);

  plan = Explain(query);
  EXPECT_EQ(plan.access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(plan.posting_size, first.size());
  // Plan-only inspection (EXPLAIN) leaves the hit/miss counts
  // untouched — they measure queries served, not plans printed.
  EXPECT_EQ(Gauge("dbph_index_hits"), 0);

  EXPECT_EQ(Select(query, "second (index)"), first);
  EXPECT_EQ(Gauge("dbph_index_hits"), 1);
}

TEST_F(PlannerStorageTest, EmptyResultIsMemoizedAsARealAnswer) {
  core::EncryptedQuery query = Query("name", Value::Str("nobody"));
  EXPECT_TRUE(Select(query, "first").empty());
  auto plan = Explain(query);
  EXPECT_EQ(plan.access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(plan.posting_size, 0u);
  EXPECT_TRUE(Select(query, "second").empty());
  EXPECT_EQ(Gauge("dbph_index_hits"), 1);
}

TEST_F(PlannerStorageTest, DuplicateTrapdoorsInOneWaveMemoizeOnce) {
  core::EncryptedQuery query = Query("grp", Value::Int(1));
  auto outcomes = on_->SelectBatch({query, query});
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].ok());
  ASSERT_TRUE(outcomes[1].ok());
  // Both planned against the same snapshot before either scanned: both
  // full scans, identical results, exactly one memo entry afterwards.
  EXPECT_EQ(Gauge("dbph_index_misses"), 2);
  EXPECT_EQ(Gauge("dbph_index_hits"), 0);
  EXPECT_EQ(Serialize(*outcomes[0]), Serialize(*outcomes[1]));
  EXPECT_EQ(Gauge("dbph_index_trapdoors"), 1);
  EXPECT_EQ(Gauge("dbph_index_memoized"), 1);

  EXPECT_EQ(Select(query, "dup repeat"), Serialize(*outcomes[0]));
  EXPECT_EQ(Gauge("dbph_index_hits"), 1);
}

TEST_F(PlannerStorageTest, OnAppendExtendsPostingListsExactly) {
  core::EncryptedQuery query = Query("grp", Value::Int(3));
  std::vector<Bytes> before = Select(query, "memoize");
  AppendTen(9);
  EXPECT_EQ(Explain(query).access_path, PlanAccessPath::kIndexLookup);
  std::vector<Bytes> after = Select(query, "post-append");
  EXPECT_GT(after.size(), before.size());
}

TEST_F(PlannerStorageTest, OnDeleteDropsRemovedRecordsExactly) {
  core::EncryptedQuery query = Query("grp", Value::Int(4));
  std::vector<Bytes> before = Select(query, "memoize");
  ASSERT_GE(before.size(), 2u);

  // Delete two of the memoized matches (rows n4 and n14 are in group 4)
  // through other trapdoors, so the memoized list loses a subset.
  for (const char* name : {"n4", "n14"}) {
    core::EncryptedQuery by_name = Query("name", Value::Str(name));
    auto on_removed = on_->DeleteWhere(by_name);
    auto off_removed = off_->DeleteWhere(by_name);
    ASSERT_TRUE(on_removed.ok());
    ASSERT_TRUE(off_removed.ok());
    EXPECT_EQ(*on_removed, *off_removed);
  }

  EXPECT_EQ(Explain(query).access_path, PlanAccessPath::kIndexLookup);
  std::vector<Bytes> after = Select(query, "post-delete");
  EXPECT_EQ(after.size(), before.size() - 2);
}

TEST_F(PlannerStorageTest, OverBudgetAppendInvalidatesInsteadOfStalling) {
  server::ServerRuntimeOptions options;
  options.max_index_append_evals = 4;
  Deploy(options);
  core::EncryptedQuery query = Query("grp", Value::Int(2));
  (void)Select(query, "memoize");  // 1 trapdoor
  ASSERT_EQ(Gauge("dbph_index_trapdoors"), 1);

  // 1 memoized trapdoor x 10 new documents = 10 evaluations > budget 4:
  // the memo is dropped rather than maintained under the lock.
  AppendTen(3);
  EXPECT_EQ(Gauge("dbph_index_trapdoors"), 0);
  EXPECT_EQ(Gauge("dbph_index_invalidations"), 1);

  // Cold again, still correct: the next select rescans and re-memoizes.
  EXPECT_EQ(Explain(query).access_path, PlanAccessPath::kFullScan);
  std::vector<Bytes> rebuilt = Select(query, "post-invalidation scan");
  EXPECT_EQ(Explain(query).access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(Select(query, "post-invalidation index"), rebuilt);
}

TEST_F(PlannerStorageTest, AppendBudgetMaintainsWhatItCanEvictsTheRest) {
  // Two memoized trapdoors, budget 12, append 10 documents: the first
  // entry is maintained (10 <= 12), the second would exceed the budget
  // and is evicted instead of served stale.
  server::ServerRuntimeOptions options;
  options.max_index_append_evals = 12;
  Deploy(options);
  core::EncryptedQuery q0 = Query("grp", Value::Int(0));
  core::EncryptedQuery q1 = Query("grp", Value::Int(1));
  (void)Select(q0, "memoize q0");
  (void)Select(q1, "memoize q1");
  ASSERT_EQ(Gauge("dbph_index_trapdoors"), 2);

  AppendTen(4);
  EXPECT_EQ(Gauge("dbph_index_trapdoors"), 1);
  EXPECT_EQ(Gauge("dbph_index_invalidations"), 1);

  // Whichever entry survived serves exactly; the evicted one rescans
  // exactly. Both must equal the index-free scan post-append.
  (void)Select(q0, "partial maintenance q0");
  (void)Select(q1, "partial maintenance q1");
}

TEST_F(PlannerStorageTest, CapacityBoundsMemoizationWithoutBreakingResults) {
  server::ServerRuntimeOptions options;
  options.max_indexed_trapdoors = 2;
  Deploy(options);
  core::EncryptedQuery q0 = Query("grp", Value::Int(0));
  core::EncryptedQuery q1 = Query("grp", Value::Int(1));
  core::EncryptedQuery q2 = Query("grp", Value::Int(2));
  (void)Select(q0, "memoize q0");
  (void)Select(q1, "memoize q1");
  EXPECT_EQ(Gauge("dbph_index_relations_at_capacity"), 1);

  // The third trapdoor is not memoized: it plans as a non-memoizing
  // scan, repeats keep scanning, and results still match the
  // index-free scan exactly.
  auto third = Explain(q2);
  EXPECT_EQ(third.access_path, PlanAccessPath::kFullScan);
  EXPECT_FALSE(third.will_memoize);
  (void)Select(q2, "at capacity");
  EXPECT_EQ(Gauge("dbph_index_trapdoors"), 2);
  EXPECT_EQ(Explain(q2).access_path, PlanAccessPath::kFullScan);
  (void)Select(q2, "at capacity repeat");

  // Entries memoized before the cap hit keep serving.
  EXPECT_EQ(Explain(q0).access_path, PlanAccessPath::kIndexLookup);
}

// ---------------- whole-server differential: index on vs off -------------

/// Two deployments over identical DRBG streams hold byte-identical
/// ciphertext and receive byte-identical requests; one runs with the
/// trapdoor index, one without. Every transport response and the whole
/// observation log must match byte for byte.
struct Deployment {
  explicit Deployment(bool enable_index)
      : server(MakeOptions(enable_index)),
        rng("planner-differential", 5),
        client(ToBytes("planner master"),
               [this](const Bytes& request) {
                 Bytes response = server.HandleRequest(request);
                 responses.push_back(response);
                 return response;
               },
               &rng) {}

  static server::ServerRuntimeOptions MakeOptions(bool enable_index) {
    server::ServerRuntimeOptions options;
    options.num_threads = 2;
    options.enable_trapdoor_index = enable_index;
    return options;
  }

  server::UntrustedServer server;
  crypto::HmacDrbg rng;
  std::vector<Bytes> responses;
  client::Client client;
};

TEST(PlannerDifferentialTest, IndexOnAndOffAreByteIdenticalEverywhere) {
  Deployment on(true);
  Deployment off(false);

  Relation table = BuildTable(60);
  auto drive = [&table](Deployment* d) {
    ASSERT_TRUE(d->client.Outsource(table).ok());
    // Repeated trapdoors (index hits), fresh trapdoors (scans),
    // batches, conjunctions, mutations in between.
    for (int round = 0; round < 3; ++round) {
      for (int64_t g = 0; g < 5; ++g) {
        ASSERT_TRUE(d->client.Select("T", "grp", Value::Int(g)).ok());
      }
      auto batch = d->client.SelectBatch(
          "T", {{"grp", Value::Int(2)}, {"grp", Value::Int(2)},
                {"name", Value::Str("n1")}});
      ASSERT_TRUE(batch.ok());
      ASSERT_TRUE(
          d->client
              .SelectConjunction("T", {{"grp", Value::Int(1)},
                                       {"name", Value::Str("n6")}})
              .ok());
      if (round == 0) {
        ASSERT_TRUE(
            d->client
                .Insert("T", {rel::Tuple({Value::Str("xtra"),
                                          Value::Int(2)})})
                .ok());
      }
      if (round == 1) {
        ASSERT_TRUE(d->client.DeleteWhere("T", "grp", Value::Int(3)).ok());
        // The deleted trapdoor is memoized empty; select it again.
        ASSERT_TRUE(d->client.Select("T", "grp", Value::Int(3)).ok());
      }
    }
  };
  drive(&on);
  if (::testing::Test::HasFatalFailure()) return;
  drive(&off);
  if (::testing::Test::HasFatalFailure()) return;

  // Byte-identical wire responses, request by request.
  ASSERT_EQ(on.responses.size(), off.responses.size());
  for (size_t i = 0; i < on.responses.size(); ++i) {
    EXPECT_EQ(on.responses[i], off.responses[i]) << "response " << i;
  }
  ExpectSameLogs(on.server.observations(), off.server.observations(),
                 "index on vs off");

  // The index really was in play: repeated trapdoors report the index
  // path on the enabled server and the scan path on the disabled one.
  auto plan_on = on.client.Explain("T", "grp", Value::Int(2));
  ASSERT_TRUE(plan_on.ok());
  EXPECT_EQ(plan_on->access_path, protocol::PlanAccessPath::kIndexLookup);
  EXPECT_TRUE(plan_on->index_enabled);
  EXPECT_GT(plan_on->indexed_trapdoors, 0u);
  auto plan_off = off.client.Explain("T", "grp", Value::Int(2));
  ASSERT_TRUE(plan_off.ok());
  EXPECT_EQ(plan_off->access_path, protocol::PlanAccessPath::kFullScan);
  EXPECT_FALSE(plan_off->index_enabled);
  EXPECT_FALSE(plan_off->will_memoize);
}

TEST(PlannerDifferentialTest, RestoreStateStartsColdButStaysIdentical) {
  Deployment on(true);
  Relation table = BuildTable(30);
  ASSERT_TRUE(on.client.Outsource(table).ok());
  ASSERT_TRUE(on.client.Select("T", "grp", Value::Int(1)).ok());
  auto warm = on.client.Explain("T", "grp", Value::Int(1));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->access_path, protocol::PlanAccessPath::kIndexLookup);

  // Save/restore: recovery deterministically rebuilds — the index
  // restarts cold and the first repeat is a (memoizing) scan again.
  auto image = on.server.SerializeState();
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(on.server.RestoreState(*image).ok());
  auto cold = on.client.Explain("T", "grp", Value::Int(1));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->access_path, protocol::PlanAccessPath::kFullScan);
  EXPECT_TRUE(cold->will_memoize);
  EXPECT_EQ(cold->indexed_trapdoors, 0u);

  auto result = on.client.Select("T", "grp", Value::Int(1));
  ASSERT_TRUE(result.ok());
  auto rewarmed = on.client.Explain("T", "grp", Value::Int(1));
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_EQ(rewarmed->access_path, protocol::PlanAccessPath::kIndexLookup);
  EXPECT_EQ(rewarmed->posting_size, warm->posting_size);
}

// ---------------- EXPLAIN plumbing ----------------

TEST(ExplainTest, UnknownRelationAndSqlFrontEnd) {
  server::UntrustedServer server;
  crypto::HmacDrbg rng("explain-sql", 3);
  client::Client client(
      ToBytes("explain master"),
      [&server](const Bytes& request) { return server.HandleRequest(request); },
      &rng);
  Relation table = BuildTable(10);
  ASSERT_TRUE(client.Outsource(table).ok());

  EXPECT_FALSE(client.Explain("Nope", "grp", Value::Int(1)).ok());

  auto text = sql::ExplainSql(&client,
                              "EXPLAIN SELECT * FROM T WHERE grp = 1");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("FullScan"), std::string::npos);

  ASSERT_TRUE(client.Select("T", "grp", Value::Int(1)).ok());
  text = sql::ExplainSql(&client, "explain SELECT * FROM T WHERE grp = 1");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("IndexLookup"), std::string::npos);

  // Conjunctions explain one plan per term.
  auto conj = sql::ExplainSql(
      &client, "EXPLAIN SELECT * FROM T WHERE grp = 1 AND name = 'n1'");
  ASSERT_TRUE(conj.ok());
  EXPECT_NE(conj->find("term 1"), std::string::npos);
  EXPECT_NE(conj->find("term 2"), std::string::npos);

  // EXPLAIN left no query observations (plan-only).
  EXPECT_EQ(server.observations().queries().size(), 1u);
}

TEST(ExplainTest, PlanReportRoundTripsOnTheWire) {
  protocol::PlanReport report;
  report.relation = "R";
  report.access_path = protocol::PlanAccessPath::kIndexLookup;
  report.num_records = 1234;
  report.posting_size = 56;
  report.num_shards = 8;
  report.will_memoize = false;
  report.index_enabled = true;
  report.indexed_trapdoors = 3;
  report.match_evals = 9876543210ull;  // exceeds uint32 to pin the width
  Bytes wire;
  report.AppendTo(&wire);
  ByteReader reader(wire);
  auto parsed = protocol::PlanReport::ReadFrom(&reader);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(parsed->relation, "R");
  EXPECT_EQ(parsed->access_path, protocol::PlanAccessPath::kIndexLookup);
  EXPECT_EQ(parsed->num_records, 1234u);
  EXPECT_EQ(parsed->posting_size, 56u);
  EXPECT_EQ(parsed->num_shards, 8u);
  EXPECT_FALSE(parsed->will_memoize);
  EXPECT_TRUE(parsed->index_enabled);
  EXPECT_EQ(parsed->indexed_trapdoors, 3u);
  EXPECT_EQ(parsed->match_evals, 9876543210ull);
}

// ---------------- bounded observation mode ----------------

TEST(ObservationModeTest, AggregateKeepsCountsNotTranscripts) {
  server::ServerRuntimeOptions options;
  server::UntrustedServer full_server(options);
  server::UntrustedServer aggregate_server(options);
  aggregate_server.mutable_observations()->SetMode(
      server::ObservationMode::kAggregate);

  Relation table = BuildTable(20);
  auto drive = [&table](server::UntrustedServer* s, uint64_t seed) {
    crypto::HmacDrbg rng("observation-mode", seed);
    client::Client client(
        ToBytes("observation master"),
        [s](const Bytes& request) { return s->HandleRequest(request); },
        &rng);
    ASSERT_TRUE(client.Outsource(table).ok());
    for (int round = 0; round < 4; ++round) {
      for (int64_t g = 0; g < 5; ++g) {
        ASSERT_TRUE(client.Select("T", "grp", Value::Int(g)).ok());
      }
    }
    ASSERT_TRUE(client.DeleteWhere("T", "grp", Value::Int(0)).ok());
  };
  drive(&full_server, 1);
  if (::testing::Test::HasFatalFailure()) return;
  drive(&aggregate_server, 1);
  if (::testing::Test::HasFatalFailure()) return;

  const auto& full = full_server.observations();
  const auto& aggregate = aggregate_server.observations();
  // Aggregate mode retains no per-event vectors...
  EXPECT_EQ(aggregate.queries().size(), 0u);
  EXPECT_EQ(aggregate.stores().size(), 0u);
  EXPECT_EQ(full.queries().size(), 21u);
  // ...but its counters equal the full deployment's.
  EXPECT_EQ(aggregate.aggregate().num_queries, 21u);
  EXPECT_EQ(aggregate.aggregate().num_stores,
            full.aggregate().num_stores);
  EXPECT_EQ(aggregate.aggregate().matched_total,
            full.aggregate().matched_total);
  EXPECT_EQ(aggregate.aggregate().result_size_histogram.Snapshot(),
            full.aggregate().result_size_histogram.Snapshot());

  // The histogram is a real summary of the full transcript: one sample
  // per query, and its sum is the total number of matched documents.
  auto histogram = aggregate.aggregate().result_size_histogram.Snapshot();
  EXPECT_EQ(histogram.count, 21u);
  EXPECT_EQ(histogram.sum, aggregate.aggregate().matched_total);
}

}  // namespace
}  // namespace dbph
