// Package ckpt implements a durable, corruption-tolerant checkpoint
// store for long SAMR campaigns. The engine writes a new generation
// every CheckpointInterval level-0 steps; each generation is a
// CRC32-framed record stream holding an engine-state header plus the
// amr.Save gob payload. A Store keeps its generations in a Dir: an
// OSDir writes each one via temp file + fsync + atomic rename, so a
// crash mid-write never destroys an older generation, and a memory
// Dir (NewMemDir) serves a resume cut whose "interrupted process" is
// the same process. Open scans the directory and keeps the newest
// generations; Restore verifies every frame checksum and falls back
// generation by generation when the newest checkpoint is torn or
// bit-flipped, reporting what was skipped.
//
// Layout of one generation (gen-%06d.ckpt):
//
//	magic "SAMRCKP1"                              (8 bytes)
//	frame 0: uint32 BE length | uint32 BE CRC32-IEEE | gob(Meta)
//	frame 1: uint32 BE length | uint32 BE CRC32-IEEE | amr.Save stream
//
// The store never interprets the hierarchy payload itself — the
// caller validates it through Restore's accept callback, so semantic
// corruption (a payload whose CRC holds but whose content amr.Load
// rejects) also triggers the generation fallback.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/vclock"
)

const (
	magic = "SAMRCKP1"
	// MetaVersion is the current engine-state header version; Restore
	// skips generations written in any other format. Version 2 moved
	// the run counters into the embedded metrics.Counters record; a
	// version-1 header keeps them as loose fields under partly
	// different names, which gob would drop without an error. Version 3
	// dropped the failed-processor list (Memb records who is dead of a
	// crash), which a version-2 reader would restore as "nobody failed".
	// Version 4 added Spec, which a version-3 writer leaves empty — and
	// an empty identity is one the engine does not compare.
	MetaVersion = 4
	// frameOverhead is the per-frame length + CRC prefix.
	frameOverhead = 8
	// maxFrame caps a frame's declared length: anything beyond it is a
	// corrupt length field, not a plausible checkpoint.
	maxFrame = 1 << 31
)

// Meta is the engine-state header stored alongside the hierarchy in
// every generation: everything beyond the grid hierarchy that the
// engine needs to continue a run byte-identically.
type Meta struct {
	Version int
	// Spec is the identity of the run that wrote the generation
	// (engine.Options.Spec): the engine resumes it only into that run.
	Spec string
	// Step is the last completed level-0 step the generation covers.
	Step int
	// SimTime is the simulated physical time after that step.
	SimTime float64
	// Clock is the full virtual-clock state (global time, per-phase
	// breakdown, per-processor busy time).
	Clock vclock.State
	// IntervalStart is the virtual time the current measurement
	// interval began at (set before the checkpoint write was charged).
	IntervalStart float64
	// IntervalTime and Delta are the recorder's persistent T(t) and δ.
	IntervalTime float64
	Delta        float64
	// ForceEval arms a catch-up gain/cost evaluation for the next
	// global decision (set when a quarantine lifted just before the
	// checkpoint).
	ForceEval bool
	// NextGridID preserves the hierarchy's ID counter: grid IDs break
	// DLB ties, so a resumed run must hand out the same IDs.
	NextGridID int64

	// Counters is the run-state record, cumulative from the start of
	// the campaign and describing the world in which this generation
	// landed on disk: DiskCheckpoints includes the generation's own
	// write, DiskPruneErrors the prune that write triggers (predicted;
	// the injected decision is deterministic).
	metrics.Counters
	// WriteAttempts is the durable-write sequence position (attempts,
	// including failed ones) — it keys the deterministic disk-fault
	// decisions, so a resumed run replays the same corruption.
	WriteAttempts int

	// Fault-tolerance state (meaningful only when HasFaults).
	HasFaults      bool
	FaultSeed      int64
	LastFailCheck  float64
	WasQuarantined bool
	// ProbeSeq is each link pair's position in the deterministic
	// probe-loss drop sequence, so a resumed run observes the same
	// fates the uninterrupted run would have.
	ProbeSeq []fault.ProbeSeqEntry
	// Memb is the elastic-membership tracker's state; it is also the
	// record of which processors are failed at the checkpoint (dead of
	// a crash).
	Memb machine.MembershipState
}

// DiskFault injects deterministic corruption into checkpoint writes.
// It mirrors netsim's FaultModel pattern: internal/fault implements it
// without an import in either direction. n is the write's sequence
// index (attempts since campaign start), t the virtual time.
type DiskFault interface {
	// WriteError reports whether the write fails outright (the
	// directory is left untouched).
	WriteError(n int, t float64) bool
	// TornWrite reports whether the write lands torn, and the fraction
	// of bytes in [0,1) that survive.
	TornWrite(n int, t float64) (bool, float64)
	// FlipBit reports whether one bit of the written image is flipped,
	// and a unit value in [0,1) selecting which bit.
	FlipBit(n int, t float64) (bool, float64)
	// RemoveError reports whether deleting a pruned generation file
	// fails (the file stays behind; the store stops tracking it).
	RemoveError(n int, t float64) bool
}

// Store manages a directory of checkpoint generations.
type Store struct {
	dir       Dir
	keep      int
	fault     DiskFault
	gens      []GenEntry // the retained generations, oldest first
	pruneErrs int        // pruned-file deletions that failed since Open
}

// GenEntry is one retained generation.
type GenEntry struct {
	Gen  int
	File string
}

// Open creates (or reopens) a store in the OS directory dir, retaining
// keep generations (keep < 1 is treated as 1).
func Open(dir string, keep int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt.Open: empty directory")
	}
	return OpenDir(OSDir(dir), keep)
}

// OpenDir opens a store in d. It scans d for generation files and
// keeps the newest keep of them, which is the set the store retained
// after its last write: a file a failed prune stranded stays out of
// Restore's chain, as it did before the restart.
func OpenDir(d Dir, keep int) (*Store, error) {
	if keep < 1 {
		keep = 1
	}
	names, err := d.List()
	if err != nil {
		return nil, fmt.Errorf("ckpt.Open: %w", err)
	}
	var gens []GenEntry
	for _, name := range names {
		num, isGen := strings.CutPrefix(name, "gen-")
		num, isCkpt := strings.CutSuffix(num, ".ckpt")
		if n, err := strconv.Atoi(num); isGen && isCkpt && err == nil && n > 0 {
			gens = append(gens, GenEntry{Gen: n, File: name})
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Gen < gens[j].Gen })
	return &Store{dir: d, keep: keep, gens: gens[max(0, len(gens)-keep):]}, nil
}

// SetFault attaches a disk-fault injector consulted on every write.
func (s *Store) SetFault(f DiskFault) { s.fault = f }

// latestGen returns the highest retained generation number (0 if none).
func (s *Store) latestGen() int {
	if len(s.gens) == 0 {
		return 0
	}
	return s.gens[len(s.gens)-1].Gen
}

// genFile names a generation's file.
func genFile(gen int) string { return fmt.Sprintf("gen-%06d.ckpt", gen) }

// frame appends one length-prefixed CRC32-framed record to b.
func frame(b *bytes.Buffer, payload []byte) {
	var hdr [frameOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	b.Write(hdr[:])
	b.Write(payload)
}

// readFrame parses one frame from data, returning the payload and the
// remaining bytes.
func readFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameOverhead {
		return nil, nil, fmt.Errorf("truncated frame header (%d bytes)", len(data))
	}
	n := binary.BigEndian.Uint32(data[0:4])
	sum := binary.BigEndian.Uint32(data[4:8])
	if n > maxFrame {
		return nil, nil, fmt.Errorf("absurd frame length %d", n)
	}
	if uint64(len(data)-frameOverhead) < uint64(n) {
		return nil, nil, fmt.Errorf("frame declares %d bytes, only %d remain", n, len(data)-frameOverhead)
	}
	payload = data[frameOverhead : frameOverhead+int(n)]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, nil, fmt.Errorf("frame checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	return payload, data[frameOverhead+int(n):], nil
}

// encode assembles the full on-disk image of one generation.
func encode(meta *Meta, hierarchy []byte) ([]byte, error) {
	var mb bytes.Buffer
	if err := gob.NewEncoder(&mb).Encode(meta); err != nil {
		return nil, fmt.Errorf("encode meta: %w", err)
	}
	var out bytes.Buffer
	out.Grow(len(magic) + 2*frameOverhead + mb.Len() + len(hierarchy))
	out.WriteString(magic)
	frame(&out, mb.Bytes())
	frame(&out, hierarchy)
	return out.Bytes(), nil
}

// decode validates a generation image and returns its meta and
// hierarchy payload.
func decode(data []byte) (*Meta, []byte, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, nil, fmt.Errorf("bad magic (%d bytes)", len(data))
	}
	metaBytes, rest, err := readFrame(data[len(magic):])
	if err != nil {
		return nil, nil, fmt.Errorf("meta frame: %w", err)
	}
	payload, rest, err := readFrame(rest)
	if err != nil {
		return nil, nil, fmt.Errorf("hierarchy frame: %w", err)
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes after the hierarchy frame", len(rest))
	}
	var meta Meta
	if err := gob.NewDecoder(bytes.NewReader(metaBytes)).Decode(&meta); err != nil {
		// A header of another version need not even decode (version 1
		// has a FailedProcs list where Counters now promotes a count):
		// name the version when the header still yields one.
		var v struct{ Version int }
		if gob.NewDecoder(bytes.NewReader(metaBytes)).Decode(&v) == nil && v.Version != MetaVersion {
			return nil, nil, fmt.Errorf("meta version %d, want %d", v.Version, MetaVersion)
		}
		return nil, nil, fmt.Errorf("decode meta: %w", err)
	}
	if meta.Version != MetaVersion {
		return nil, nil, fmt.Errorf("meta version %d, want %d", meta.Version, MetaVersion)
	}
	return &meta, payload, nil
}

// Write adds a new generation holding meta plus the serialised
// hierarchy, pruning generations beyond the retention count. seq is
// the caller's write-attempt counter and now the virtual time — both
// feed the deterministic disk-fault decisions. A simulated write
// error returns before anything touches disk; torn writes and bit
// flips corrupt the stored bytes (the writer itself sees success,
// like a lying disk), which is what exercises Restore's fallback.
func (s *Store) Write(meta *Meta, hierarchy []byte, seq int, now float64) (int, error) {
	meta.Version = MetaVersion
	img, err := encode(meta, hierarchy)
	if err != nil {
		return 0, fmt.Errorf("ckpt.Write: %w", err)
	}
	if s.fault != nil && s.fault.WriteError(seq, now) {
		return 0, fmt.Errorf("ckpt.Write: injected write error (write %d at t=%.4f)", seq, now)
	}
	if s.fault != nil {
		if torn, frac := s.fault.TornWrite(seq, now); torn {
			img = img[:int(frac*float64(len(img)))]
		}
		if flip, u := s.fault.FlipBit(seq, now); flip && len(img) > 0 {
			bit := int(u * float64(len(img)*8))
			img = append([]byte(nil), img...) // do not corrupt the caller's view
			img[bit/8] ^= 1 << (bit % 8)
		}
	}

	gen := s.latestGen() + 1
	name := genFile(gen)
	if err := s.dir.WriteFile(name, img); err != nil {
		return 0, fmt.Errorf("ckpt.Write: %w", err)
	}
	s.gens = append(s.gens, GenEntry{Gen: gen, File: name})
	s.prune(seq, now)
	return gen, nil
}

// prune drops generations beyond the retention count, deleting their
// files. A deletion that fails — injected via the disk fault's
// RemoveError, or a real filesystem error — is counted rather than
// dropped on the floor: the store stops tracking the generation
// either way, but PruneErrors surfaces the stranded files so disk-fault
// scenarios (and operators watching a filling disk) can see them.
// seq and now key the deterministic fault decision, like Write's.
func (s *Store) prune(seq int, now float64) {
	for len(s.gens) > s.keep {
		old := s.gens[0]
		s.gens = s.gens[1:]
		if s.fault != nil && s.fault.RemoveError(seq, now) {
			s.pruneErrs++
			continue
		}
		if err := s.dir.Remove(old.File); err != nil {
			s.pruneErrs++
		}
	}
}

// PruneErrors returns the number of pruned-generation deletions that
// failed since the store was opened.
func (s *Store) PruneErrors() int { return s.pruneErrs }

// PredictPruneErrors returns how many prune errors the NEXT
// successful write at (seq, now) will incur: the injected RemoveError
// decision is a pure function of (seq, now), so the caller can fold
// the in-flight write's prune outcome into the metadata that very
// write persists. Real (non-injected) filesystem errors are
// inherently unpredictable and excluded — resume determinism is only
// promised under injected faults.
func (s *Store) PredictPruneErrors(seq int, now float64) int {
	if s.fault == nil || !s.fault.RemoveError(seq, now) {
		return 0
	}
	over := len(s.gens) + 1 - s.keep
	if over < 0 {
		return 0
	}
	return over
}
