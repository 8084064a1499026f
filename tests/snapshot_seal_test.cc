// Sealed chunks hold each stored document once: ChunkWriter serializes
// documents back to back into one buffer whose 32-bit word refs the scan
// kernel reads in place. When the next document would push an offset
// past the cap, the writer seals the chunk and starts a new one.
// Materializing 4 GiB to hit the real limit is out of the question, so
// these tests lower the injectable cap (SetCapForTesting) to cut chunks
// and assert that every cut scans exactly like a one-chunk build and a
// scalar swp::SearchDocument oracle. The last test checks the server
// end to end: what it stores, coalesces, images and fetches are the
// documents' own serialized bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "crypto/random.h"
#include "dbph/scheme.h"
#include "protocol/messages.h"
#include "server/snapshot.h"
#include "server/untrusted_server.h"
#include "swp/search.h"

namespace dbph {
namespace {

using core::DatabasePh;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;
using server::ChunkWriter;
using server::DocumentChunks;
using server::SnapshotChunk;
using server::SnapshotMatch;

constexpr uint64_t kDefaultChunkCap = 0xffffffffull;

/// Restores the production cap no matter how the test exits.
struct ChunkCapGuard {
  explicit ChunkCapGuard(uint64_t cap) { ChunkWriter::SetCapForTesting(cap); }
  ~ChunkCapGuard() { ChunkWriter::SetCapForTesting(kDefaultChunkCap); }
};

Bytes Serialized(const swp::EncryptedDocument& doc) {
  Bytes out;
  doc.AppendTo(&out);
  return out;
}

class SnapshotSealTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Create({
        {"name", ValueType::kString, 8},
        {"grp", ValueType::kInt64, 10},
    });
    ASSERT_TRUE(schema.ok());
    rng_ = std::make_unique<crypto::HmacDrbg>("seal-test", 3);
    master_ = core::GenerateMasterKey(rng_.get());
    auto ph = DatabasePh::Create(*schema, master_);
    ASSERT_TRUE(ph.ok()) << ph.status();
    ph_ = std::make_unique<DatabasePh>(std::move(*ph));

    // 30 rows, grp cycling 0..2 — the grp=1 select matches the ten
    // positions congruent to 1 mod 3 (plus any SWP false positives,
    // which the oracle reports too).
    for (uint64_t i = 0; i < 30; ++i) {
      docs_.push_back(Encrypt(i));
      ids_.push_back(i + 1);
    }

    auto query = ph_->EncryptQuery("T", "grp", Value::Int(1));
    ASSERT_TRUE(query.ok()) << query.status();
    trapdoor_ = query->trapdoor;
  }

  swp::EncryptedDocument Encrypt(uint64_t i) {
    Tuple tuple({Value::Str("r" + std::to_string(i)),
                 Value::Int(static_cast<int64_t>(i % 3))});
    auto doc = ph_->EncryptTuple(tuple, rng_.get());
    EXPECT_TRUE(doc.ok()) << doc.status();
    return *doc;
  }

  /// docs_ written through one ChunkWriter under the CURRENT cap.
  DocumentChunks Build() {
    DocumentChunks chunks;
    chunks.check_length = ph_->options().check_length;
    ChunkWriter writer(&chunks);
    writer.Reserve(docs_);
    for (size_t i = 0; i < docs_.size(); ++i) writer.Add(ids_[i], docs_[i]);
    writer.Finish();
    return chunks;
  }

  /// The sharded scan's (position, rid) pairs in order; every match's
  /// bytes must be its document's serialized form.
  std::vector<std::pair<uint64_t, uint64_t>> ScanMatches(
      const DocumentChunks& chunks, size_t num_shards) {
    std::vector<SnapshotMatch> matches;
    chunks.Scan(trapdoor_, num_shards, /*pool=*/nullptr, &matches);
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (const SnapshotMatch& match : matches) {
      out.emplace_back(match.position, match.record_id);
      EXPECT_EQ(Bytes(match.bytes.begin(), match.bytes.end()),
                Serialized(docs_.at(match.position)));
    }
    return out;
  }

  /// The scalar oracle: swp::SearchDocument over every parsed document.
  std::vector<std::pair<uint64_t, uint64_t>> OracleMatches() {
    swp::SwpParams params;
    params.word_length = trapdoor_.target.size();
    params.check_length = ph_->options().check_length;
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (size_t i = 0; i < docs_.size(); ++i) {
      if (!swp::SearchDocument(params, trapdoor_, docs_[i]).empty()) {
        out.emplace_back(i, ids_[i]);
      }
    }
    return out;
  }

  /// Checks a chunk list's layout invariants against docs_: bytes are
  /// the serialized documents back to back, each ref names exactly its
  /// word's ciphertext, ids are ids_, and no chunk exceeds
  /// `cap` unless it holds a single document.
  void ExpectWellFormed(const DocumentChunks& chunks, uint64_t cap) {
    uint64_t position = 0;
    uint64_t words = 0;
    for (size_t c = 0; c < chunks.chunks.size(); ++c) {
      const SnapshotChunk& chunk = *chunks.chunks[c];
      ASSERT_GT(chunk.size(), 0u);
      EXPECT_EQ(chunks.chunk_first[c], position);
      if (chunk.size() > 1) EXPECT_LE(chunk.bytes.size(), cap);
      EXPECT_EQ(chunk.doc_offset.back(), chunk.bytes.size());
      for (size_t i = 0; i < chunk.size(); ++i, ++position) {
        const swp::EncryptedDocument& doc = docs_.at(position);
        EXPECT_EQ(chunk.record_ids[i], ids_.at(position));
        EXPECT_EQ(Bytes(chunk.doc(i).begin(), chunk.doc(i).end()),
                  Serialized(doc));
        ASSERT_EQ(chunk.word_first[i + 1] - chunk.word_first[i],
                  doc.words.size());
        for (size_t w = 0; w < doc.words.size(); ++w) {
          const swp::WordRef& ref = chunk.word_refs[chunk.word_first[i] + w];
          EXPECT_EQ(Bytes(chunk.bytes.begin() + ref.offset,
                          chunk.bytes.begin() + ref.offset + ref.length),
                    doc.words[w]);
        }
        words += doc.words.size();
      }
    }
    EXPECT_EQ(chunks.num_docs, position);
    EXPECT_EQ(chunks.num_words, words);
  }

  std::unique_ptr<crypto::HmacDrbg> rng_;
  std::unique_ptr<DatabasePh> ph_;
  Bytes master_;
  /// The held documents and their record ids, in storage order.
  std::vector<swp::EncryptedDocument> docs_;
  std::vector<uint64_t> ids_;
  swp::Trapdoor trapdoor_;
};

TEST_F(SnapshotSealTest, DefaultCapWritesOneChunkAndFindsEveryMatch) {
  DocumentChunks chunks = Build();
  ASSERT_EQ(chunks.chunks.size(), 1u);
  ExpectWellFormed(chunks, kDefaultChunkCap);
  auto matches = ScanMatches(chunks, /*num_shards=*/3);
  EXPECT_EQ(matches, OracleMatches());
  // Every true match must be present (SWP guarantees no false
  // negatives); extras can only be false positives.
  size_t found = 0;
  for (uint64_t i = 1; i < docs_.size(); i += 3) {
    for (const auto& [position, rid] : matches) {
      if (position == i) ++found;
    }
  }
  EXPECT_EQ(found, docs_.size() / 3);
}

TEST_F(SnapshotSealTest, OneDocumentCapCutsEveryDocumentIntoItsOwnChunk) {
  const DocumentChunks reference = Build();
  // Room for exactly the smallest document: no chunk has room for a
  // second, so every document is cut into its own chunk.
  uint64_t cap = kDefaultChunkCap;
  for (const auto& doc : docs_) {
    cap = std::min<uint64_t>(cap, Serialized(doc).size());
  }
  DocumentChunks cut;
  {
    ChunkCapGuard guard(cap);
    cut = Build();
  }
  ASSERT_EQ(cut.chunks.size(), docs_.size());
  ExpectWellFormed(cut, cap);
  for (size_t num_shards : {1u, 2u, 3u, 5u, 8u}) {
    EXPECT_EQ(ScanMatches(cut, num_shards), ScanMatches(reference, num_shards))
        << "num_shards=" << num_shards;
    EXPECT_EQ(ScanMatches(cut, num_shards), OracleMatches())
        << "num_shards=" << num_shards;
  }
}

TEST_F(SnapshotSealTest, MidRelationCapCutsSeveralChunks) {
  const DocumentChunks reference = Build();
  ASSERT_EQ(reference.chunks.size(), 1u);
  // Room for about a third of the relation: cuts fall mid-relation and,
  // at most shard counts, mid-shard.
  const uint64_t cap = reference.chunks[0]->bytes.size() / 3 + 7;
  DocumentChunks cut;
  {
    ChunkCapGuard guard(cap);
    cut = Build();
  }
  ASSERT_GT(cut.chunks.size(), 2u);
  ASSERT_LT(cut.chunks.size(), docs_.size());
  ExpectWellFormed(cut, cap);
  for (size_t num_shards : {1u, 2u, 3u, 5u, 8u}) {
    EXPECT_EQ(ScanMatches(cut, num_shards), ScanMatches(reference, num_shards))
        << "num_shards=" << num_shards;
    EXPECT_EQ(ScanMatches(cut, num_shards), OracleMatches())
        << "num_shards=" << num_shards;
  }
}

TEST_F(SnapshotSealTest, CompactedCopiesSurvivorsWithShiftedRefs) {
  DocumentChunks cut;
  {
    ChunkCapGuard guard(/*cap=*/1);
    cut = Build();
  }
  // Coalesce: one chunk, identical to writing the documents directly.
  DocumentChunks coalesced = cut.Compacted({});
  ASSERT_EQ(coalesced.chunks.size(), 1u);
  ExpectWellFormed(coalesced, kDefaultChunkCap);
  EXPECT_EQ(coalesced.chunks[0]->bytes, Build().chunks[0]->bytes);

  // Survivors: the copied refs must land on the right words after the
  // removed documents' bytes are squeezed out.
  const std::vector<uint64_t> removed = {0, 4, 5, 17, 29};
  DocumentChunks survivors = coalesced.Compacted(removed);
  std::vector<swp::EncryptedDocument> kept;
  std::vector<uint64_t> kept_ids;
  for (size_t i = 0, r = 0; i < docs_.size(); ++i) {
    if (r < removed.size() && removed[r] == i) {
      ++r;
      continue;
    }
    kept.push_back(docs_[i]);
    kept_ids.push_back(ids_[i]);
  }
  docs_ = kept;
  ids_ = kept_ids;
  ASSERT_EQ(survivors.chunks.size(), 1u);
  ExpectWellFormed(survivors, kDefaultChunkCap);
  for (size_t i = 0; i < ids_.size(); ++i) {
    EXPECT_EQ(survivors.PositionOf(ids_[i]), i);
  }
  for (uint64_t position : removed) {
    EXPECT_EQ(survivors.PositionOf(position + 1), DocumentChunks::kNotFound);
  }
  for (size_t num_shards : {1u, 3u}) {
    EXPECT_EQ(ScanMatches(survivors, num_shards), OracleMatches());
  }
}

TEST_F(SnapshotSealTest, PositionOfBinarySearchesAcrossChunks) {
  const uint64_t cap = Build().chunks[0]->bytes.size() / 4;
  DocumentChunks cut;
  {
    ChunkCapGuard guard(cap);
    cut = Build();
  }
  ASSERT_GT(cut.chunks.size(), 3u);
  for (uint64_t position = 0; position < docs_.size(); ++position) {
    EXPECT_EQ(cut.PositionOf(position + 1), position);
  }
  EXPECT_EQ(cut.PositionOf(0), DocumentChunks::kNotFound);
  EXPECT_EQ(cut.PositionOf(docs_.size() + 1), DocumentChunks::kNotFound);
  EXPECT_EQ(DocumentChunks().PositionOf(1), DocumentChunks::kNotFound);
}

TEST_F(SnapshotSealTest, StoredBytesAreTheDocumentsOwnAfterAppendsAndDelete) {
  // Store, then 17 one-row appends (the 16th makes 17 chunks, past the
  // budget of 16, and coalesces them into one; the 17th adds a second),
  // then a delete. The image's document section and the kFetchRelation
  // payload must be the documents' own AppendTo bytes, in the order the
  // client holds them.
  server::UntrustedServer server;
  core::EncryptedRelation relation;
  relation.name = "T";
  relation.check_length = ph_->options().check_length;
  relation.documents = docs_;
  ASSERT_TRUE(server.StoreRelation(relation).ok());
  for (uint64_t i = 30; i < 47; ++i) {
    docs_.push_back(Encrypt(i));
    ids_.push_back(i + 1);
    ASSERT_TRUE(server.AppendTuples("T", {docs_.back()}).ok());
  }
  const auto chunks = [&server] {
    return server.CollectStats().gauges.at("dbph_snapshot_chunks");
  };
  EXPECT_EQ(chunks(), 2);
  auto query = ph_->EncryptQuery("T", "grp", Value::Int(1));
  ASSERT_TRUE(query.ok());
  auto removed = server.DeleteWhere(*query);
  ASSERT_TRUE(removed.ok()) << removed.status();
  ASSERT_GE(*removed, 15u);
  EXPECT_EQ(chunks(), 1);  // the survivors, rewritten into one chunk
  const auto oracle = OracleMatches();  // over all 47 held documents
  ASSERT_EQ(oracle.size(), *removed);
  std::vector<swp::EncryptedDocument> held;
  for (size_t i = 0, r = 0; i < docs_.size(); ++i) {
    if (r < oracle.size() && oracle[r].first == i) {
      ++r;
      continue;
    }
    held.push_back(docs_[i]);
  }
  Bytes expected;
  AppendUint32(&expected, static_cast<uint32_t>(held.size()));
  for (const auto& doc : held) doc.AppendTo(&expected);

  auto image = server.SerializeState();
  ASSERT_TRUE(image.ok());
  // magic | version | relation count | "T" (length-prefixed) |
  // check_length, then the document count and the documents.
  const size_t docs_at = 4 + 4 + 4 + (4 + 1) + 4;
  ASSERT_GE(image->size(), docs_at + expected.size());
  EXPECT_EQ(Bytes(image->begin() + docs_at,
                  image->begin() + docs_at + expected.size()),
            expected);

  protocol::Envelope fetch;
  fetch.type = protocol::MessageType::kFetchRelation;
  fetch.payload = ToBytes("T");
  auto response = protocol::Envelope::Parse(server.HandleRequest(
      fetch.Serialize()));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->type, protocol::MessageType::kFetchResult);
  ASSERT_GE(response->payload.size(), expected.size());
  EXPECT_EQ(Bytes(response->payload.begin(),
                  response->payload.begin() + expected.size()),
            expected);
}

}  // namespace
}  // namespace dbph
