#ifndef DBPH_SERVER_SNAPSHOT_H_
#define DBPH_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/merkle.h"
#include "crypto/search_tree.h"
#include "server/planner/trapdoor_index.h"
#include "server/runtime/thread_pool.h"
#include "swp/match_kernel.h"
#include "swp/search.h"

namespace dbph {
namespace server {

/// \brief The server's document store and the immutable published
/// state its reads execute against (MVCC-style). Every stored document
/// lives in exactly one place: its serialized form inside a sealed
/// SnapshotChunk, shared between the live relation and every published
/// RelationSnapshot that contains it. Mutations run under the server's
/// single-writer dispatch lock and, before acknowledging, publish a
/// fresh ServerSnapshot via one pointer swap. Readers pin the current
/// ServerSnapshot and execute entirely against it — no dispatch lock, no
/// borrowed live state — so a racing append/delete can neither tear a
/// result set nor splice a stale Merkle root under a proof.
///
/// Chunks are immutable once sealed, so sharing them is sound; the
/// trapdoor index is a value copy consulted only through its stats-free
/// Peek, and the Merkle tree/epoch/attestation triple is the exact proof
/// source the documents were published with.

/// One stored document's serialized form (EncryptedDocument::AppendTo),
/// borrowed from the chunk that holds it: valid while that chunk is
/// alive, i.e. while the caller pins the snapshot (or, under the
/// dispatch lock, the live relation) it came from.
using DocBytes = std::span<const uint8_t>;

/// \brief A sealed run of documents in storage order, held once: their
/// serialized forms back to back in one buffer, which is at once what
/// responses and state images copy out and what the scan kernel reads
/// word ciphertexts from in place (see docs/ARCHITECTURE "The hot-scan
/// kernel"). Built only by ChunkWriter, so every stored document is
/// well-formed and every word slot has a ref. Chunks are shared between
/// snapshot generations, so an append publishes O(appended) new state
/// (old chunks + one new chunk) instead of recopying the relation.
struct SnapshotChunk {
  /// Every document's serialized form, back to back in storage order.
  Bytes bytes;
  /// Document i is bytes[doc_offset[i], doc_offset[i + 1]); size() + 1
  /// entries.
  std::vector<uint32_t> doc_offset;
  /// Document i's record identity (what Eve correlates across results —
  /// a per-server counter, assigned at store or append and never
  /// reused). Strictly increasing, within a chunk and across a
  /// relation's chunks, which is what lets PositionOf binary-search.
  std::vector<uint64_t> record_ids;
  /// One ref per word slot, offsets into `bytes`, in (document, slot)
  /// order. Document i's slots are word_refs[word_first[i] ..
  /// word_first[i + 1]).
  std::vector<swp::WordRef> word_refs;
  /// Prefix offsets into word_refs; size() + 1 entries.
  std::vector<uint32_t> word_first;

  size_t size() const { return record_ids.size(); }
  DocBytes doc(size_t i) const {
    return DocBytes(bytes.data() + doc_offset[i],
                    doc_offset[i + 1] - doc_offset[i]);
  }
};

/// One document matched by a scan or posting fetch, in storage order:
/// the global leaf position (for the proof), the record identity (for
/// the observation log), and the stored bytes (for the response).
struct SnapshotMatch {
  uint64_t position = 0;
  uint64_t record_id = 0;
  DocBytes bytes;
};

/// \brief A relation's documents in storage order, as a list of sealed
/// chunks. The live relation holds one (what the next publish shares)
/// and every RelationSnapshot is one; copying it copies chunk pointers,
/// never document bytes. Const methods are safe from any number of
/// threads concurrently.
class DocumentChunks {
 public:
  static constexpr uint64_t kNotFound = ~uint64_t{0};

  uint32_t check_length = 4;
  size_t num_docs = 0;
  /// Total word slots — the PRF evaluations a full scan performs (the
  /// match_evals EXPLAIN predicts).
  uint64_t num_words = 0;
  std::vector<std::shared_ptr<const SnapshotChunk>> chunks;
  /// Global position of chunks[i]'s first document; parallel to chunks.
  std::vector<uint64_t> chunk_first;

  /// Appends `chunk`'s documents after the current last one. An empty
  /// chunk is dropped, so every listed chunk holds a document.
  void AppendChunk(std::shared_ptr<const SnapshotChunk> chunk);

  /// record_id -> global leaf position; kNotFound when absent. Binary
  /// search over the chunks' first ids, then the chunk's ids.
  uint64_t PositionOf(uint64_t record_id) const;

  /// The stored bytes at global position `position` (< num_docs).
  DocBytes doc(uint64_t position) const;

  /// These documents minus the ones at `removed` (sorted global
  /// positions), copied into fresh chunks — one unless the offset cap
  /// cuts it. Serves the delete-survivors rebuild and, with nothing
  /// removed, the coalesce of a relation that used up its chunk budget.
  DocumentChunks Compacted(const std::vector<uint64_t>& removed) const;

  /// Index-path fetch: resolves a memoized posting list (record ids,
  /// storage order) to stored documents + leaf positions. A snapshot's
  /// frozen index and documents were copied in the same critical
  /// section, so every posting resolves by construction.
  Status FetchPostings(const std::vector<uint64_t>& postings,
                       std::vector<SnapshotMatch>* out) const;

  /// Scan-path execution: the full trapdoor scan, split into
  /// `num_shards` balanced contiguous ranges run over `pool` (null runs
  /// inline); matches come out in storage order whatever the split.
  /// Each shard batches its PRF evaluations through one MatchContext,
  /// reading the word ciphertexts in place in each chunk's bytes.
  /// `match_evals`, when non-null, accumulates the PRF evaluations
  /// performed (the per-query accounting the obs stack exports).
  void Scan(const swp::Trapdoor& trapdoor, size_t num_shards,
            runtime::ThreadPool* pool, std::vector<SnapshotMatch>* out,
            uint64_t* match_evals = nullptr) const;

 private:
  /// Index into `chunks` of the chunk holding global `position`.
  size_t ChunkOf(uint64_t position) const;
};

/// \brief The one builder of sealed chunks. Documents go in in storage
/// order — parsed (store, append) or copied from another chunk with
/// their refs shifted (coalesce, delete survivors) — and come out as
/// chunks appended to `out`. When the next document would push the
/// chunk's bytes past the 32-bit offset cap, the open chunk is sealed
/// and a new one started; a chunk always takes at least one document
/// (one document alone stays far below the cap: it arrives inside a
/// frame of at most protocol::kMaxFrameBytes).
class ChunkWriter {
 public:
  explicit ChunkWriter(DocumentChunks* out) : out_(out) {}

  /// Pre-sizes the open chunk for up to `docs` more documents with
  /// `words` word slots in `bytes` serialized bytes, so a bulk write
  /// allocates each buffer once.
  void Reserve(uint64_t docs, uint64_t words, uint64_t bytes);
  void Reserve(const std::vector<swp::EncryptedDocument>& docs);

  /// Serializes `doc` into the open chunk. Returns its stored bytes,
  /// valid until the next call on this writer.
  DocBytes Add(uint64_t record_id, const swp::EncryptedDocument& doc);

  /// Copies document `i` of `from`, refs shifted to its new offset.
  void Copy(const SnapshotChunk& from, size_t i);

  /// Seals the open chunk into `out`. Call once, after the last document.
  void Finish();

  /// The offset cap (normally the uint32 limit). Tests lower it to cut
  /// chunks without materializing 4 GiB of ciphertext; production code
  /// never calls this. Restore the default (0xffffffff) afterwards.
  static void SetCapForTesting(uint64_t cap);

 private:
  /// The open chunk, with room for a `size`-byte document under the
  /// cap (sealing the current one first if it has none).
  SnapshotChunk& Open(uint64_t size);
  /// Closes the document just written into the open chunk.
  void EndDoc(uint64_t record_id);

  DocumentChunks* out_;
  std::shared_ptr<SnapshotChunk> open_;
};

/// \brief One relation frozen at a publish point: its documents plus
/// the planner and proof state published with them. Everything is
/// immutable after construction.
class RelationSnapshot : public DocumentChunks {
 public:
  /// Frozen copy of the relation's trapdoor index at publish time, or
  /// null when the runtime option disables the index. Readers consult
  /// it only through Peek; hit/miss accounting lives in server-level
  /// atomics so the frozen copy stays truly immutable.
  std::shared_ptr<const planner::TrapdoorIndex> index;
  /// Frozen Merkle tree (null when integrity is off) plus the epoch /
  /// attestation metadata proofs are built from. Pinning these with
  /// the documents is what makes a reader's ResultProof consistent
  /// under racing mutations: the proof's epoch and root always match
  /// the documents it covers.
  std::shared_ptr<const crypto::MerkleTree> tree;
  uint64_t epoch = 0;
  uint64_t attested_epoch = 0;
  Bytes root_signature;
  /// Frozen authenticated search structure (null when integrity is
  /// off): the proof source for CompletenessProofs, pinned with the
  /// documents and the row tree so a reader's completeness evidence
  /// always describes the exact state its results came from.
  std::shared_ptr<const crypto::SearchTree> search;
  /// The owner's signature over (relation, attested_epoch, search
  /// root); empty until attested, stale once epoch moves past
  /// attested_epoch (same rule as root_signature).
  Bytes search_signature;
  /// Server-wide generation stamp of the relation's DOCUMENT state
  /// (bumps on store/append/delete-with-matches, not on index or
  /// attestation changes). Lets a reader's deferred scan-memoization
  /// prove its result still describes the live documents.
  uint64_t doc_generation = 0;
};

/// \brief The whole server's published state: one frozen relation per
/// name. Swapped wholesale (the map is small — shared_ptr copies) under
/// the dispatch lock; pinned by readers with one shared_ptr copy.
struct ServerSnapshot {
  std::map<std::string, std::shared_ptr<const RelationSnapshot>> relations;
};

}  // namespace server
}  // namespace dbph

#endif  // DBPH_SERVER_SNAPSHOT_H_
