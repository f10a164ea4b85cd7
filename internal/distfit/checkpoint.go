package distfit

import (
	"math"
	"sync"

	"taurus/internal/dataset"
	"taurus/internal/model"
)

// Checkpoint is the merged-so-far state of an unfinished round: the
// partials accepted so far, indexed by chunk, under a fingerprint of the
// record pool they came from. A coordinator starting a round whose pool
// matches the fingerprint restores these chunks instead of re-executing
// them; partials are only valid while the model they were computed against
// is unchanged, which holds because the model is mutated solely by the
// round-ending Merge.
type Checkpoint struct {
	Fingerprint uint64
	Partials    []model.Partial // by chunk index; nil = not yet computed
}

// Store persists round checkpoints. One Store backs one coordinator at a
// time; handing a dead coordinator's Store to its successor is what makes
// the round resume.
type Store interface {
	Save(ck Checkpoint)
	Load() (Checkpoint, bool)
	Clear()
}

// MemStore is the in-memory Store — checkpointing across coordinator
// restarts within a process (the fault-injection tests). A durable deployment would implement Store over
// disk; partials would then need a serialised form (see the ROADMAP
// follow-up).
type MemStore struct {
	mu sync.Mutex
	ck Checkpoint
	ok bool
}

// NewMemStore returns an empty in-memory checkpoint store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save replaces the stored checkpoint.
func (s *MemStore) Save(ck Checkpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ck, s.ok = ck, true
}

// Load returns the stored checkpoint, if any.
func (s *MemStore) Load() (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ck, s.ok
}

// Clear discards the stored checkpoint.
func (s *MemStore) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ck, s.ok = Checkpoint{}, false
}

// fingerprint hashes a round's record pool and chunk size (FNV-1a), the
// identity a checkpoint is valid for: same records, same merge schedule.
func fingerprint(recs []dataset.Record, chunkSize int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(chunkSize))
	mix(uint64(len(recs)))
	for _, r := range recs {
		mix(uint64(int64(r.Class)))
		for _, f := range r.Features {
			mix(uint64(math.Float32bits(f)))
		}
	}
	return h
}
