#include "server/snapshot.h"

#include <algorithm>
#include <utility>

namespace dbph {
namespace server {

namespace {
/// See SetCapForTesting. Plain (non-atomic) because tests set it on one
/// thread before building chunks; production never writes it.
uint64_t g_chunk_cap = 0xffffffffull;
}  // namespace

// ------------------------------------------------------------ ChunkWriter

void ChunkWriter::SetCapForTesting(uint64_t cap) { g_chunk_cap = cap; }

SnapshotChunk& ChunkWriter::Open(uint64_t size) {
  if (open_ != nullptr && open_->size() > 0 &&
      open_->bytes.size() + size > g_chunk_cap) {
    Finish();
  }
  if (open_ == nullptr) {
    open_ = std::make_shared<SnapshotChunk>();
    open_->doc_offset.push_back(0);
    open_->word_first.push_back(0);
  }
  return *open_;
}

void ChunkWriter::Reserve(uint64_t docs, uint64_t words, uint64_t bytes) {
  SnapshotChunk& chunk = Open(0);
  chunk.bytes.reserve(chunk.bytes.size() + std::min(bytes, g_chunk_cap));
  chunk.doc_offset.reserve(chunk.doc_offset.size() + docs);
  chunk.record_ids.reserve(chunk.record_ids.size() + docs);
  chunk.word_first.reserve(chunk.word_first.size() + docs);
  chunk.word_refs.reserve(chunk.word_refs.size() + words);
}

void ChunkWriter::Reserve(const std::vector<swp::EncryptedDocument>& docs) {
  uint64_t words = 0;
  uint64_t bytes = 0;
  for (const swp::EncryptedDocument& doc : docs) {
    words += doc.words.size();
    bytes += doc.SerializedSize();
  }
  Reserve(docs.size(), words, bytes);
}

void ChunkWriter::EndDoc(uint64_t record_id) {
  open_->record_ids.push_back(record_id);
  open_->doc_offset.push_back(static_cast<uint32_t>(open_->bytes.size()));
  open_->word_first.push_back(static_cast<uint32_t>(open_->word_refs.size()));
}

DocBytes ChunkWriter::Add(uint64_t record_id,
                          const swp::EncryptedDocument& doc) {
  SnapshotChunk& chunk = Open(doc.SerializedSize());
  const size_t begin = chunk.bytes.size();
  doc.AppendTo(&chunk.bytes);
  const DocBytes stored(chunk.bytes.data() + begin,
                        chunk.bytes.size() - begin);
  // Cannot fail: the walk accepts whatever AppendTo writes. Its refs are
  // relative to the document, so shift them to the chunk.
  const size_t first = chunk.word_refs.size();
  (void)swp::CollectWordRefs(stored, &chunk.word_refs);
  for (size_t r = first; r < chunk.word_refs.size(); ++r) {
    chunk.word_refs[r].offset += static_cast<uint32_t>(begin);
  }
  EndDoc(record_id);
  return stored;
}

void ChunkWriter::Copy(const SnapshotChunk& from, size_t i) {
  const DocBytes doc = from.doc(i);
  SnapshotChunk& chunk = Open(doc.size());
  const uint32_t src = from.doc_offset[i];
  const uint32_t dst = static_cast<uint32_t>(chunk.bytes.size());
  chunk.bytes.insert(chunk.bytes.end(), doc.begin(), doc.end());
  for (uint32_t r = from.word_first[i]; r < from.word_first[i + 1]; ++r) {
    const swp::WordRef& ref = from.word_refs[r];
    chunk.word_refs.push_back({ref.offset - src + dst, ref.length});
  }
  EndDoc(from.record_ids[i]);
}

void ChunkWriter::Finish() {
  if (open_ != nullptr) out_->AppendChunk(std::move(open_));
  open_.reset();
}

// --------------------------------------------------------- DocumentChunks

void DocumentChunks::AppendChunk(std::shared_ptr<const SnapshotChunk> chunk) {
  if (chunk->size() == 0) return;
  chunk_first.push_back(num_docs);
  num_docs += chunk->size();
  num_words += chunk->word_refs.size();
  chunks.push_back(std::move(chunk));
}

size_t DocumentChunks::ChunkOf(uint64_t position) const {
  // The chunk whose first position is the greatest <= position.
  return static_cast<size_t>(
      std::upper_bound(chunk_first.begin(), chunk_first.end(), position) -
      chunk_first.begin() - 1);
}

uint64_t DocumentChunks::PositionOf(uint64_t record_id) const {
  // Record ids strictly increase in storage order: the candidate chunk
  // is the last one whose first id is <= record_id.
  auto chunk = std::upper_bound(
      chunks.begin(), chunks.end(), record_id,
      [](uint64_t id, const std::shared_ptr<const SnapshotChunk>& c) {
        return id < c->record_ids.front();
      });
  if (chunk == chunks.begin()) return kNotFound;
  --chunk;
  const std::vector<uint64_t>& ids = (*chunk)->record_ids;
  auto it = std::lower_bound(ids.begin(), ids.end(), record_id);
  if (it == ids.end() || *it != record_id) return kNotFound;
  return chunk_first[chunk - chunks.begin()] + (it - ids.begin());
}

DocBytes DocumentChunks::doc(uint64_t position) const {
  const size_t c = ChunkOf(position);
  return chunks[c]->doc(position - chunk_first[c]);
}

DocumentChunks DocumentChunks::Compacted(
    const std::vector<uint64_t>& removed) const {
  DocumentChunks out;
  out.check_length = check_length;
  ChunkWriter writer(&out);
  // Sized for every document, an upper bound on the survivors.
  uint64_t bytes = 0;
  for (const auto& chunk : chunks) bytes += chunk->bytes.size();
  writer.Reserve(num_docs, num_words, bytes);
  size_t next = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    for (size_t i = 0; i < chunks[c]->size(); ++i) {
      if (next < removed.size() && removed[next] == chunk_first[c] + i) {
        ++next;
        continue;
      }
      writer.Copy(*chunks[c], i);
    }
  }
  writer.Finish();
  return out;
}

Status DocumentChunks::FetchPostings(const std::vector<uint64_t>& postings,
                                     std::vector<SnapshotMatch>* out) const {
  out->reserve(postings.size());
  for (uint64_t record_id : postings) {
    uint64_t position = PositionOf(record_id);
    if (position == kNotFound) {
      // Unreachable by construction: the frozen index and frozen
      // documents come from the same critical section. Fail closed.
      return Status::NotFound("record not found");
    }
    out->push_back({position, record_id, doc(position)});
  }
  return Status::OK();
}

void DocumentChunks::Scan(const swp::Trapdoor& trapdoor, size_t num_shards,
                          runtime::ThreadPool* pool,
                          std::vector<SnapshotMatch>* out,
                          uint64_t* match_evals) const {
  // Balanced contiguous split: the first (n % num_shards) shards get one
  // extra document, and shard order is storage order.
  const size_t n = num_docs;
  if (num_shards == 0) num_shards = 1;
  num_shards = std::min(num_shards, std::max<size_t>(n, 1));
  const size_t base = n / num_shards;
  const size_t extra = n % num_shards;
  std::vector<std::pair<size_t, size_t>> ranges;
  ranges.reserve(num_shards);
  size_t begin = 0;
  for (size_t i = 0; i < num_shards; ++i) {
    size_t len = base + (i < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + len);
    begin += len;
  }

  swp::SwpParams params;
  params.word_length = trapdoor.target.size();
  params.check_length = check_length;

  std::vector<std::vector<SnapshotMatch>> shard_matches(ranges.size());
  std::vector<uint64_t> shard_evals(ranges.size(), 0);

  // One MatchContext per shard (precomputed HMAC schedule + scratch);
  // each chunk's slice of the shard is one MatchMany over the chunk's
  // bytes, the refs pointing at the word ciphertexts in place.
  const auto scan_shard = [&](size_t shard) {
    swp::MatchContext context(params, trapdoor);
    std::vector<uint8_t> match_bits;
    auto& matches = shard_matches[shard];
    size_t pos = ranges[shard].first;
    const size_t end = ranges[shard].second;
    for (size_t c = pos < end ? ChunkOf(pos) : 0; pos < end; ++c) {
      const SnapshotChunk& chunk = *chunks[c];
      const size_t cbegin = chunk_first[c];
      const size_t a = pos - cbegin;
      const size_t b = std::min(end - cbegin, chunk.size());
      const uint32_t rbegin = chunk.word_first[a];
      const uint32_t rend = chunk.word_first[b];
      match_bits.resize(rend - rbegin);
      if (rend > rbegin) {
        context.MatchMany(
            chunk.bytes,
            std::span<const swp::WordRef>(chunk.word_refs.data() + rbegin,
                                          rend - rbegin),
            match_bits.data());
      }
      for (size_t d = a; d < b; ++d) {
        const auto first = match_bits.begin() + (chunk.word_first[d] - rbegin);
        const auto last =
            match_bits.begin() + (chunk.word_first[d + 1] - rbegin);
        if (std::find(first, last, 1) != last) {
          matches.push_back({cbegin + d, chunk.record_ids[d], chunk.doc(d)});
        }
      }
      pos = cbegin + b;
    }
    shard_evals[shard] = context.match_evals();
  };

  if (pool != nullptr && ranges.size() > 1) {
    pool->ParallelFor(ranges.size(), scan_shard);
  } else {
    for (size_t i = 0; i < ranges.size(); ++i) scan_shard(i);
  }

  size_t total = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (match_evals != nullptr) *match_evals += shard_evals[i];
    total += shard_matches[i].size();
  }
  out->reserve(out->size() + total);
  for (auto& matches : shard_matches) {
    out->insert(out->end(), matches.begin(), matches.end());
  }
}

}  // namespace server
}  // namespace dbph
