#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "client/client.h"
#include "crypto/random.h"
#include "server/untrusted_server.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

Schema EmpSchema() {
  auto s = Schema::Create({
      {"name", ValueType::kString, 10},
      {"dept", ValueType::kString, 5},
  });
  EXPECT_TRUE(s.ok());
  return *s;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<crypto::HmacDrbg>("persist", 1);
    client_ = std::make_unique<client::Client>(
        ToBytes("persist master"),
        [this](const Bytes& request) {
          return server_.HandleRequest(request);
        },
        rng_.get());
    Relation emp("Emp", EmpSchema());
    ASSERT_TRUE(emp.Insert({Value::Str("Smith"), Value::Str("IT")}).ok());
    ASSERT_TRUE(emp.Insert({Value::Str("Jones"), Value::Str("HR")}).ok());
    ASSERT_TRUE(client_->Outsource(emp).ok());
  }

  server::UntrustedServer server_;
  std::unique_ptr<crypto::HmacDrbg> rng_;
  std::unique_ptr<client::Client> client_;
};

TEST_F(PersistenceTest, SaveLoadRoundTrip) {
  std::string path = TempPath("server_state.dbph");
  ASSERT_TRUE(server_.SaveTo(path).ok());

  // A "restarted" server: fresh object, same disk state.
  server::UntrustedServer restarted;
  ASSERT_TRUE(restarted.LoadFrom(path).ok());
  EXPECT_EQ(restarted.num_relations(), 1u);
  EXPECT_EQ(*restarted.RelationSize("Emp"), 2u);

  // The original store remains queryable too.
  auto it = client_->Select("Emp", "dept", Value::Str("IT"));
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(it->size(), 1u);

  std::remove(path.c_str());
}

TEST_F(PersistenceTest, QueriesWorkAgainstReloadedServer) {
  std::string path = TempPath("server_state2.dbph");
  ASSERT_TRUE(server_.SaveTo(path).ok());

  server::UntrustedServer restarted;
  ASSERT_TRUE(restarted.LoadFrom(path).ok());

  // Point the existing client (which owns the keys and schemes) at the
  // restarted server by issuing the select against it directly.
  auto ph = client_->SchemeFor("Emp");
  ASSERT_TRUE(ph.ok());
  auto query = (*ph)->EncryptQuery("Emp", "dept", Value::Str("HR"));
  ASSERT_TRUE(query.ok());
  auto docs = restarted.Select(*query);
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 1u);
  auto tuple = (*ph)->DecryptTuple((*docs)[0]);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->at(0), Value::Str("Jones"));

  std::remove(path.c_str());
}

TEST_F(PersistenceTest, LoadRejectsCorruptFiles) {
  std::string path = TempPath("corrupt.dbph");
  ASSERT_TRUE(server_.SaveTo(path).ok());

  // Truncate.
  {
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  server::UntrustedServer victim;
  EXPECT_FALSE(victim.LoadFrom(path).ok());
  // A failed load must leave the server empty, not half-populated.
  EXPECT_EQ(victim.num_relations(), 0u);

  // Bad magic.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a dbph file at all";
  }
  EXPECT_FALSE(victim.LoadFrom(path).ok());

  // Missing file.
  EXPECT_FALSE(victim.LoadFrom(TempPath("does_not_exist.dbph")).ok());

  std::remove(path.c_str());
}

TEST_F(PersistenceTest, LoadReplacesExistingState) {
  std::string path = TempPath("replace.dbph");
  ASSERT_TRUE(server_.SaveTo(path).ok());

  server::UntrustedServer other;
  // Give `other` a different relation first.
  Relation pre("Old", EmpSchema());
  crypto::HmacDrbg rng2("persist-other", 2);
  client::Client tmp(
      ToBytes("other key"),
      [&other](const Bytes& request) { return other.HandleRequest(request); },
      &rng2);
  ASSERT_TRUE(pre.Insert({Value::Str("X"), Value::Str("Y")}).ok());
  ASSERT_TRUE(tmp.Outsource(pre).ok());
  ASSERT_EQ(other.num_relations(), 1u);

  ASSERT_TRUE(other.LoadFrom(path).ok());
  EXPECT_EQ(other.num_relations(), 1u);
  EXPECT_TRUE(other.RelationSize("Emp").ok());
  EXPECT_FALSE(other.RelationSize("Old").ok());
  // Loading clears the observation log (re-stores are not observations).
  EXPECT_TRUE(other.observations().queries().empty());
  EXPECT_TRUE(other.observations().stores().empty());

  std::remove(path.c_str());
}

TEST_F(PersistenceTest, RecordIdsAreNeverReusedAndRestoreIsDeterministic) {
  // The ids Eve logs for the last select.
  auto last_ids = [this]() {
    return server_.observations().queries().back().matched_records;
  };
  ASSERT_TRUE(client_->Select("Emp", "dept", Value::Str("IT")).ok());
  std::vector<uint64_t> seen = last_ids();
  ASSERT_TRUE(client_->Select("Emp", "dept", Value::Str("HR")).ok());
  seen.push_back(last_ids().at(0));
  ASSERT_EQ(seen.size(), 2u);

  // A delete frees no id for reuse: the next append gets a fresh one.
  ASSERT_TRUE(client_->DeleteWhere("Emp", "name", Value::Str("Smith")).ok());
  ASSERT_TRUE(
      client_->Insert("Emp", {Tuple({Value::Str("Brown"), Value::Str("IT")})})
          .ok());
  ASSERT_TRUE(client_->Select("Emp", "dept", Value::Str("IT")).ok());
  ASSERT_EQ(last_ids().size(), 1u);
  const uint64_t appended = last_ids()[0];
  for (uint64_t id : seen) EXPECT_GT(appended, id);

  // Nor does a drop: a re-stored relation's documents get fresh ids.
  ASSERT_TRUE(client_->Drop("Emp").ok());
  Relation emp("Emp", EmpSchema());
  ASSERT_TRUE(emp.Insert({Value::Str("Jones"), Value::Str("HR")}).ok());
  ASSERT_TRUE(client_->Outsource(emp).ok());
  ASSERT_TRUE(client_->Select("Emp", "dept", Value::Str("HR")).ok());
  ASSERT_EQ(last_ids().size(), 1u);
  EXPECT_GT(last_ids()[0], appended);

  // Restoring one image on fresh servers assigns the same ids.
  auto image = server_.SerializeState();
  ASSERT_TRUE(image.ok());
  auto scheme = client_->SchemeFor("Emp");
  ASSERT_TRUE(scheme.ok());
  auto query = (*scheme)->EncryptQuery("Emp", "dept", Value::Str("HR"));
  ASSERT_TRUE(query.ok());
  std::vector<std::vector<uint64_t>> restored_ids;
  for (int i = 0; i < 2; ++i) {
    server::UntrustedServer fresh;
    ASSERT_TRUE(fresh.RestoreState(*image).ok());
    ASSERT_TRUE(fresh.Select(*query).ok());
    restored_ids.push_back(
        fresh.observations().queries().back().matched_records);
  }
  EXPECT_EQ(restored_ids[0], restored_ids[1]);
}

TEST(RecordIdOrderTest, IdsStrictlyIncreaseInStorageOrder) {
  // Every row shares dept "X", so a select on it matches the whole
  // relation and Eve logs its record ids in storage order. The index is
  // off so each select is a fresh scan of the stored chunks.
  server::ServerRuntimeOptions options;
  options.enable_trapdoor_index = false;
  server::UntrustedServer server(options);
  crypto::HmacDrbg rng("persist-order", 1);
  client::Client client(
      ToBytes("persist master"),
      [&server](const Bytes& request) { return server.HandleRequest(request); },
      &rng);
  const auto expect_increasing = [](server::UntrustedServer* s,
                                     const core::EncryptedQuery& query,
                                     size_t rows, const char* step) {
    ASSERT_TRUE(s->Select(query).ok()) << step;
    const std::vector<uint64_t>& ids =
        s->observations().queries().back().matched_records;
    ASSERT_EQ(ids.size(), rows) << step;
    for (size_t i = 1; i < ids.size(); ++i) {
      EXPECT_LT(ids[i - 1], ids[i]) << step << " at storage position " << i;
    }
  };
  Relation emp("Emp", EmpSchema());
  for (const char* name : {"Ames", "Baker", "Cole"}) {
    ASSERT_TRUE(emp.Insert({Value::Str(name), Value::Str("X")}).ok());
  }
  ASSERT_TRUE(client.Outsource(emp).ok());
  auto scheme = client.SchemeFor("Emp");
  ASSERT_TRUE(scheme.ok());
  auto everyone = (*scheme)->EncryptQuery("Emp", "dept", Value::Str("X"));
  ASSERT_TRUE(everyone.ok());
  expect_increasing(&server, *everyone, 3, "store");

  ASSERT_TRUE(
      client.Insert("Emp", {Tuple({Value::Str("Dunn"), Value::Str("X")})})
          .ok());
  expect_increasing(&server, *everyone, 4, "append");

  ASSERT_TRUE(client.DeleteWhere("Emp", "name", Value::Str("Baker")).ok());
  expect_increasing(&server, *everyone, 3, "delete");

  // 17 one-row appends: more chunks than the budget, so the relation
  // is coalesced on the way.
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(client
                    .Insert("Emp", {Tuple({Value::Str("n" + std::to_string(i)),
                                           Value::Str("X")})})
                    .ok());
  }
  expect_increasing(&server, *everyone, 20, "coalesce");

  auto image = server.SerializeState();
  ASSERT_TRUE(image.ok());
  server::UntrustedServer restored(options);
  ASSERT_TRUE(restored.RestoreState(*image).ok());
  expect_increasing(&restored, *everyone, 20, "restore");
}

}  // namespace
}  // namespace dbph
