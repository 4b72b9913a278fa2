#ifndef RAPID_NN_WORKSPACE_H_
#define RAPID_NN_WORKSPACE_H_

#include <cstddef>
#include <cstdint>

namespace rapid::nn {

/// Grow-only float scratch for the graph-free inference path (the `Infer`
/// methods in nn/layers.h and `NeuralReranker::InferBatchLogits`).
///
/// `Take` bump-allocates out of chunks obtained from `std::malloc`, never
/// from `operator new`. That is the lifetime rule that makes it safe to
/// grow inside an `nn::arena::ArenaScope`: a chunk the workspace maps
/// while a scope is open is not arena memory, so the scope's rewind cannot
/// reclaim it (nn/arena.h rule 1). Chunks are kept until the owning thread
/// exits; a `Scope` only rewinds the bump position. So once a thread has
/// run its largest forward, later forwards of that size or smaller map
/// nothing.
///
/// One workspace per thread (`ThisThread()`); it is not thread-safe.
class Workspace {
  struct Chunk;

 public:
  Workspace() = default;
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// `n` uninitialized floats, 64-byte aligned, valid until the innermost
  /// `Scope` live at the call rewinds.
  float* Take(size_t n);

  /// RAII: rewinds the workspace to its position at construction. Scopes
  /// nest like `ArenaScope`s.
  class Scope {
   public:
    explicit Scope(Workspace& ws);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    Chunk* chunk_;
    size_t used_;
  };

  /// Chunk mallocs so far (growth events).
  uint64_t chunk_mallocs() const { return chunk_mallocs_; }

  /// This thread's workspace.
  static Workspace& ThisThread();

 private:
  Chunk* head_ = nullptr;
  Chunk* cur_ = nullptr;
  uint64_t chunk_mallocs_ = 0;
};

}  // namespace rapid::nn

#endif  // RAPID_NN_WORKSPACE_H_
