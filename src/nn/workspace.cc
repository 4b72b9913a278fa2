#include "nn/workspace.h"

#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define RAPID_WORKSPACE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RAPID_WORKSPACE_ASAN 1
#endif
#endif
#ifdef RAPID_WORKSPACE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace rapid::nn {

namespace {

constexpr size_t kAlignFloats = 16;               // 64 bytes
constexpr size_t kChunkFloats = size_t{1} << 16;  // 256 KiB

// Under AddressSanitizer every float not handed out by a live `Take` is
// poisoned, and each `Take` is followed by a poisoned redzone, so an
// overrun of one buffer into the next, or a read after a `Scope` rewound,
// is reported like a heap overflow or use-after-free.
#ifdef RAPID_WORKSPACE_ASAN
constexpr size_t kRedzoneFloats = kAlignFloats;
void Poison(float* p, size_t n) {
  ASAN_POISON_MEMORY_REGION(p, n * sizeof(float));
}
void Unpoison(float* p, size_t n) {
  ASAN_UNPOISON_MEMORY_REGION(p, n * sizeof(float));
}
#else
constexpr size_t kRedzoneFloats = 0;
void Poison(float*, size_t) {}
void Unpoison(float*, size_t) {}
#endif

}  // namespace

// Header of one malloc'd chunk; `cap` floats of payload follow it.
struct alignas(64) Workspace::Chunk {
  Chunk* next;
  size_t cap;   // payload capacity in floats
  size_t used;  // floats handed out
  float* payload() { return reinterpret_cast<float*>(this + 1); }
};

Workspace::~Workspace() {
  for (Chunk* c = head_; c != nullptr;) {
    Chunk* next = c->next;
    std::free(c);
    c = next;
  }
}

float* Workspace::Take(size_t requested) {
  const size_t n =
      (requested + kRedzoneFloats + kAlignFloats - 1) / kAlignFloats *
      kAlignFloats;
  if (cur_ == nullptr && head_ != nullptr) {
    cur_ = head_;
    cur_->used = 0;
  }
  while (cur_ != nullptr && cur_->used + n > cur_->cap) {
    if (cur_->next == nullptr) break;
    // Chunks past the current one hold nothing live: enter at offset 0.
    cur_ = cur_->next;
    cur_->used = 0;
  }
  if (cur_ == nullptr || cur_->used + n > cur_->cap) {
    const size_t cap = n > kChunkFloats ? n : kChunkFloats;
    void* raw = std::aligned_alloc(alignof(Chunk),
                                   sizeof(Chunk) + cap * sizeof(float));
    if (raw == nullptr) throw std::bad_alloc();
    Chunk* c = new (raw) Chunk{nullptr, cap, 0};
    Poison(c->payload(), cap);
    // Append after the current chunk; any chunks beyond it were too small
    // for this request and stay in the list behind the new one.
    if (cur_ == nullptr) {
      c->next = head_;
      head_ = c;
    } else {
      c->next = cur_->next;
      cur_->next = c;
    }
    cur_ = c;
    chunk_mallocs_ += 1;
  }
  float* p = cur_->payload() + cur_->used;
  cur_->used += n;
  Unpoison(p, requested);
  return p;
}

Workspace::Scope::Scope(Workspace& ws)
    : ws_(ws), chunk_(ws.cur_), used_(ws.cur_ ? ws.cur_->used : 0) {}

Workspace::Scope::~Scope() {
  if constexpr (kRedzoneFloats > 0) {
    // Everything handed out since the scope opened is dead again.
    for (Chunk* c = chunk_ != nullptr ? chunk_ : ws_.head_; c != nullptr;
         c = c->next) {
      const size_t keep = c == chunk_ ? used_ : 0;
      Poison(c->payload() + keep, c->cap - keep);
      if (c == ws_.cur_) break;
    }
  }
  ws_.cur_ = chunk_;
  if (chunk_ != nullptr) chunk_->used = used_;
}

Workspace& Workspace::ThisThread() {
  static thread_local Workspace ws;
  return ws;
}

}  // namespace rapid::nn
