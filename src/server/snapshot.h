#ifndef DBPH_SERVER_SNAPSHOT_H_
#define DBPH_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
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
/// lives in exactly one place: a sealed SnapshotChunk, shared between the
/// live relation and every published RelationSnapshot that contains it.
/// Mutations run under the server's single-writer dispatch lock and,
/// before acknowledging, publish a fresh ServerSnapshot via one pointer
/// swap. Readers pin the current ServerSnapshot and execute entirely
/// against it — no dispatch lock, no borrowed live state — so a racing
/// append/delete can neither tear a result set nor splice a stale
/// Merkle root under a proof.
///
/// Chunks are immutable once sealed, so sharing them is sound; the
/// trapdoor index is a value copy consulted only through its stats-free
/// Peek, and the Merkle tree/epoch/attestation triple is the exact proof
/// source the documents were published with.

/// One stored ciphertext document: its record identity (what Eve
/// correlates across results — a per-server counter, assigned at store
/// or append and never reused) plus its serialized bytes.
struct SnapshotDoc {
  uint64_t record_id = 0;
  Bytes bytes;
};

/// A contiguous run of documents in storage order. Chunks are shared
/// between snapshot generations so an append publishes O(appended)
/// new state (old chunks + one new chunk) instead of recopying the
/// relation; deletes and stores build a single chunk (they are O(n)
/// operations already).
struct SnapshotChunk {
  /// Seals `docs` into a new immutable chunk.
  static std::shared_ptr<const SnapshotChunk> Sealed(
      std::vector<SnapshotDoc> docs);

  std::vector<SnapshotDoc> docs;
  /// record_id -> index into docs; built once by Seal().
  std::unordered_map<uint64_t, uint32_t> pos_in_chunk;

  // ---- scan-kernel arena (built once by Seal(); see docs/ARCHITECTURE
  // "The hot-scan kernel"). Every word ciphertext of every well-formed
  // document in this chunk, copied into ONE contiguous buffer so a
  // trapdoor scan streams linearly through word bytes instead of
  // pointer-chasing per-document heap allocations. ----

  /// All word ciphertexts back to back, in (document, slot) order.
  Bytes word_arena;
  /// One ref per word slot, offsets into word_arena. Document i's slots
  /// are the contiguous run word_refs[word_first[i] .. word_first[i+1]).
  std::vector<swp::WordRef> word_refs;
  /// Prefix offsets into word_refs; size docs.size() + 1.
  std::vector<uint32_t> word_first;
  /// Parallel to docs: 1 when CollectWordRefs succeeded (it fails on
  /// exactly the inputs EncryptedDocument::ReadFrom rejects). A scan
  /// hitting a 0 re-parses for the exact error status the scalar path
  /// would have returned.
  std::vector<uint8_t> doc_wellformed;
  /// False when the arena could not be built (offsets would overflow
  /// uint32); the scan falls back to the per-document scalar path.
  bool arena_built = false;

  void Seal();

  /// The arena size/ref-count ceiling Seal() enforces (normally the
  /// uint32 offset limit). Tests lower it to force the scalar-fallback
  /// branch without materializing 4 GiB of ciphertext; production code
  /// never calls this. Restore the default (0xffffffff) afterwards.
  static void SetArenaCapForTesting(uint64_t cap);
};

/// One document matched by a scan or posting fetch, in storage order:
/// the global leaf position (for the proof), the record identity (for
/// the observation log), and the parsed document (for the response).
struct SnapshotMatch {
  uint64_t position = 0;
  uint64_t record_id = 0;
  swp::EncryptedDocument doc;
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
  std::vector<std::shared_ptr<const SnapshotChunk>> chunks;
  /// Global position of chunks[i].docs[0]; parallel to chunks.
  std::vector<uint64_t> chunk_first;

  /// Appends `chunk`'s documents after the current last one. An empty
  /// chunk is dropped, so every listed chunk holds a document.
  void AppendChunk(std::shared_ptr<const SnapshotChunk> chunk);

  /// record_id -> global leaf position; kNotFound when absent.
  uint64_t PositionOf(uint64_t record_id) const;

  /// The document at global position `position` (< num_docs).
  const SnapshotDoc& doc(uint64_t position) const;

  /// Parses the stored bytes at `position`.
  Result<swp::EncryptedDocument> ParseDoc(uint64_t position) const;

  /// Index-path fetch: resolves a memoized posting list (record ids,
  /// storage order) to parsed documents + leaf positions. A snapshot's
  /// frozen index and documents were copied in the same critical
  /// section, so every posting resolves by construction.
  Status FetchPostings(const std::vector<uint64_t>& postings,
                       std::vector<SnapshotMatch>* out) const;

  /// Scan-path execution: the full trapdoor scan, split into
  /// `num_shards` balanced contiguous ranges run over `pool` (null runs
  /// inline); matches come out in storage order whatever the split.
  /// Each shard batches its PRF evaluations through one MatchContext
  /// over the chunk arenas; a chunk whose arena could not be built
  /// (see SnapshotChunk::arena_built) takes the per-document scalar
  /// sweep, with bit-identical results. `match_evals`, when non-null,
  /// accumulates the PRF evaluations performed (the per-query
  /// accounting the obs stack exports).
  Status Scan(const swp::Trapdoor& trapdoor, size_t num_shards,
              runtime::ThreadPool* pool, std::vector<SnapshotMatch>* out,
              uint64_t* match_evals = nullptr) const;
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
  /// Total word slots across the relation — the predicted match_evals
  /// a full scan reports (EXPLAIN).
  uint64_t word_slots = 0;
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
