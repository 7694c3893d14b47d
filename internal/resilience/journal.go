package resilience

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Journal is a crash-safe, append-only checkpoint log sharded across one
// JSONL segment per writer. Each line is a self-contained
// {"k":key,"s":seq,"v":value} record written with a single Write call, so
// a SIGKILL can tear at most the final line of a segment; Replay skips
// torn lines and the scanner simply rescans those domains
// deterministically.
//
// Storage-fault hardening (the properties the chaos suite pins):
//
//   - Every record carries a monotonically increasing sequence number, so
//     replay resolves duplicate keys — across segments, shards and process
//     restarts — to the last complete record deterministically, regardless
//     of directory iteration order.
//   - Sequence numbers derive from segment generations, so opening a
//     journal reads only the directory listing, never a record. A handle
//     opened over a directory whose highest segment generation is maxGen
//     issues seqs from (maxGen+1)<<32 + 1 upwards and writes only segments
//     of generation ≥ maxGen+1. Hence every record in a generation-g
//     segment has seq < (g+1)<<32: compact-<g> keeps its inputs' seqs,
//     which came from generations < g, and generations skipped by a failed
//     segment open only widen the gap. The next handle's base therefore
//     lies above every seq on disk. Journals written before generation
//     bases hold small seqs, which stay below any base. The scheme assumes
//     fewer than 2^32 records per handle and generations below 2^31.
//   - A journal instance only ever appends to segments it created itself
//     (each open starts a fresh generation), so existing journal bytes are
//     never touched, let alone corrupted, by later runs.
//   - A failed write seals its segment; the next append rotates to a fresh
//     one, so records acked after a torn write can never be glued to the
//     torn bytes and lost.
//   - After DegradeAfter consecutive write failures the journal flips to a
//     degraded state: appends fail fast with ErrJournalDegraded (the
//     campaign keeps scanning without checkpoints), while every ProbeEvery
//     appends one real write probes whether storage recovered.
//
// Segments also rotate at SegmentBytes and compact via Compact, which
// rewrites the last complete record per key into a single fresh segment
// with replay(compact(J)) == replay(J).
type Journal struct {
	dir string
	cfg JournalConfig
	fs  FS

	mu     sync.Mutex
	shards map[int]*shardWriter

	seq     atomic.Int64 // last sequence number issued
	nextGen atomic.Int64 // next segment generation
	count   atomic.Int64 // records appended through this handle

	degraded    atomic.Bool
	consecFails atomic.Int64
	probeTick   atomic.Int64

	stats struct {
		appends, skipped            atomic.Int64
		writeFailures, syncFailures atomic.Int64
		rotations, probes           atomic.Int64
	}
}

// JournalConfig tunes the journal's storage behaviour. The zero value is
// the legacy profile: real filesystem, no rotation, fsync only on close,
// degraded mode after defaultDegradeAfter consecutive write failures.
type JournalConfig struct {
	// FS is the filesystem implementation; nil means the real one. Tests
	// inject a FaultFS here to chaos-test every journal code path.
	FS FS
	// SyncEvery is the fsync cadence per shard writer: after every N
	// appended records the segment is fsynced. Zero syncs only on rotation
	// and close (fast, loses at most a page cache on power loss); 1 syncs
	// every record (durable, slow).
	SyncEvery int
	// SegmentBytes rotates a shard's segment once it exceeds this size.
	// Zero disables size-based rotation (segments still rotate per open
	// and after write failures).
	SegmentBytes int64
	// DegradeAfter is the number of consecutive Append failures before the
	// journal disables itself (ErrJournalDegraded fast-fails). Zero means
	// the default of 3; negative disables degraded mode.
	DegradeAfter int
	// ProbeEvery is how often a degraded journal risks a real write to
	// detect recovery: every N-th Append while degraded. Zero means the
	// default of 64; negative disables probing (degraded is terminal).
	ProbeEvery int
}

const (
	defaultDegradeAfter = 3
	defaultProbeEvery   = 64
)

func (c JournalConfig) degradeAfter() int {
	if c.DegradeAfter == 0 {
		return defaultDegradeAfter
	}
	return c.DegradeAfter
}

func (c JournalConfig) probeEvery() int {
	if c.ProbeEvery == 0 {
		return defaultProbeEvery
	}
	return c.ProbeEvery
}

// ErrJournalDegraded reports that the journal has disabled itself after
// repeated storage failures. The campaign is expected to keep scanning —
// checkpointing is an optimisation, never a correctness requirement — and
// the scanner surfaces the state through the scan_checkpoint_degraded
// gauge and /readyz.
var ErrJournalDegraded = errors.New("resilience: checkpoint journal degraded (storage failures); scanning continues without checkpoints")

// shardWriter is one worker's current segment.
type shardWriter struct {
	mu       sync.Mutex
	f        File
	size     int64
	unsynced int
	broken   bool   // a write failed: never append to this segment again
	line     []byte // record assembly buffer, reused under mu
}

type journalRecord struct {
	K string          `json:"k"`
	S int64           `json:"s,omitempty"`
	V json.RawMessage `json:"v"`
}

// OpenJournal creates (or reuses) dir with the legacy configuration.
func OpenJournal(dir string) (*Journal, error) {
	return OpenJournalWith(dir, JournalConfig{})
}

// OpenJournalWith creates (or reuses) dir and returns a journal that
// appends to fresh segment files inside it. It lists the directory but
// reads no segment: new sequence numbers start above every existing one
// because they derive from the next segment generation (see Journal) —
// the invariant replay's last-complete-wins resolution rests on.
func OpenJournalWith(dir string, cfg JournalConfig) (*Journal, error) {
	fs := fsOrOS(cfg.FS)
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("resilience: create checkpoint dir: %w", err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resilience: read checkpoint dir: %w", err)
	}
	gen := maxGen(names) + 1
	if gen >= 1<<31 {
		return nil, fmt.Errorf("resilience: checkpoint segment generation %d exhausts the sequence space", gen)
	}
	j := &Journal{dir: dir, cfg: cfg, fs: fs, shards: map[int]*shardWriter{}}
	j.seq.Store(gen << 32)
	j.nextGen.Store(gen)
	return j, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// segmentName names shard's segment of the given generation.
func segmentName(shard int, gen int64) string {
	return fmt.Sprintf("shard-%03d-%06d.jsonl", shard, gen)
}

// segGen extracts the generation from a segment file name; legacy
// (ungenerated) segments and foreign files report 0.
func segGen(name string) int64 {
	base := strings.TrimSuffix(name, ".jsonl")
	if base == name {
		return 0
	}
	i := strings.LastIndexByte(base, '-')
	if i < 0 {
		return 0
	}
	gen, err := strconv.ParseInt(base[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return gen
}

// maxGen returns the highest generation among the .jsonl segment names.
func maxGen(names []string) int64 {
	var top int64
	for _, name := range names {
		if strings.HasSuffix(name, ".jsonl") {
			if g := segGen(name); g > top {
				top = g
			}
		}
	}
	return top
}

// Append journals one key/value record to the given shard. The value is
// marshalled to JSON and the whole line is written with one Write so it is
// either fully present or torn (never interleaved with another record —
// shards are per-writer segments). A storage failure is returned to the
// caller and counted; enough consecutive failures flip the journal into
// the degraded state, after which Append fails fast with
// ErrJournalDegraded until a probe write succeeds.
func (j *Journal) Append(shard int, key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("resilience: marshal checkpoint record: %w", err)
	}
	if j.degraded.Load() {
		// Fail fast while degraded, except for the periodic probe that
		// detects storage recovery.
		if pe := j.cfg.probeEvery(); pe < 0 || j.probeTick.Add(1)%int64(pe) != 0 {
			j.stats.skipped.Add(1)
			return ErrJournalDegraded
		}
		j.stats.probes.Add(1)
	}
	seq := j.seq.Add(1)

	j.mu.Lock()
	w := j.shards[shard]
	if w == nil {
		w = &shardWriter{}
		j.shards[shard] = w
	}
	j.mu.Unlock()

	// Shards are written by a single worker each; the per-writer mutex
	// only guards against rotation racing a close.
	w.mu.Lock()
	w.line = appendRecordLine(w.line[:0], key, seq, raw)
	err = j.appendLocked(w, shard, w.line)
	w.mu.Unlock()
	if err != nil {
		j.stats.writeFailures.Add(1)
		if da := j.cfg.degradeAfter(); da > 0 && j.consecFails.Add(1) >= int64(da) {
			j.degraded.Store(true)
		}
		return err
	}
	j.consecFails.Store(0)
	if j.degraded.CompareAndSwap(true, false) {
		// A probe landed: storage recovered, checkpointing resumes.
		j.probeTick.Store(0)
	}
	j.stats.appends.Add(1)
	j.count.Add(1)
	return nil
}

// appendRecordLine appends the JSONL form of journalRecord{key, seq, raw}
// to dst: byte for byte what json.Marshal of the record plus "\n" yields,
// without re-validating and re-compacting raw, which json.Marshal already
// produced in canonical form. Keys that need escaping (rare: checkpoint
// keys are plain ASCII) go through the json encoder.
func appendRecordLine(dst []byte, key string, seq int64, raw []byte) []byte {
	dst = append(dst, `{"k":`...)
	if plainJSONString(key) {
		dst = append(dst, '"')
		dst = append(dst, key...)
		dst = append(dst, '"')
	} else {
		k, _ := json.Marshal(key) // a string always marshals
		dst = append(dst, k...)
	}
	if seq != 0 { // omitempty
		dst = append(dst, `,"s":`...)
		dst = strconv.AppendInt(dst, seq, 10)
	}
	dst = append(dst, `,"v":`...)
	dst = append(dst, raw...)
	return append(dst, "}\n"...)
}

// plainJSONString reports whether s encodes as a JSON string verbatim:
// printable ASCII with nothing encoding/json escapes (quotes, backslash,
// and the HTML-sensitive <, >, &).
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendLocked writes one line to w's segment, rotating first when the
// segment is missing, sealed by an earlier failure, or full. Caller holds
// w.mu.
func (j *Journal) appendLocked(w *shardWriter, shard int, line []byte) error {
	if w.f == nil || w.broken || (j.cfg.SegmentBytes > 0 && w.size+int64(len(line)) > j.cfg.SegmentBytes && w.size > 0) {
		if err := j.rotateLocked(w, shard); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(line); err != nil {
		// The tail of this segment may now hold torn bytes; seal it so the
		// next record lands in a fresh segment and stays replayable.
		w.broken = true
		return fmt.Errorf("resilience: append checkpoint record: %w", err)
	}
	w.size += int64(len(line))
	w.unsynced++
	if j.cfg.SyncEvery > 0 && w.unsynced >= j.cfg.SyncEvery {
		if err := w.f.Sync(); err != nil {
			j.stats.syncFailures.Add(1)
			w.broken = true
			return fmt.Errorf("resilience: sync checkpoint segment: %w", err)
		}
		w.unsynced = 0
	}
	return nil
}

// rotateLocked seals w's current segment (sync + close, best effort when
// the segment is already broken) and opens a fresh one. Caller holds w.mu.
func (j *Journal) rotateLocked(w *shardWriter, shard int) error {
	if w.f != nil {
		if !w.broken && w.unsynced > 0 {
			if err := w.f.Sync(); err != nil {
				j.stats.syncFailures.Add(1)
			}
		}
		_ = w.f.Close()
		w.f = nil
		j.stats.rotations.Add(1)
	}
	gen := j.nextGen.Add(1) - 1
	f, err := j.fs.OpenAppend(joinPath(j.dir, segmentName(shard, gen)))
	if err != nil {
		return fmt.Errorf("resilience: open checkpoint segment: %w", err)
	}
	w.f, w.size, w.unsynced, w.broken = f, 0, 0, false
	return nil
}

// Count returns the number of records appended through this handle (not
// counting records already on disk from a previous run).
func (j *Journal) Count() int64 { return j.count.Load() }

// Degraded reports whether the journal has disabled itself after repeated
// storage failures (appends fail fast; probes may re-enable it).
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// JournalStats is a point-in-time snapshot of the journal's storage
// counters, surfaced through the scanner's telemetry gauges.
type JournalStats struct {
	// Appends counts records durably handed to the filesystem; Skipped
	// counts appends fast-failed while degraded.
	Appends, Skipped int64
	// WriteFailures and SyncFailures count storage errors; Rotations
	// counts segment rollovers; Probes counts degraded-mode recovery
	// attempts.
	WriteFailures, SyncFailures int64
	Rotations, Probes           int64
	// Degraded is the current disabled-with-alert state.
	Degraded bool
}

// Stats snapshots the journal's storage counters.
func (j *Journal) Stats() JournalStats {
	return JournalStats{
		Appends:       j.stats.appends.Load(),
		Skipped:       j.stats.skipped.Load(),
		WriteFailures: j.stats.writeFailures.Load(),
		SyncFailures:  j.stats.syncFailures.Load(),
		Rotations:     j.stats.rotations.Load(),
		Probes:        j.stats.probes.Load(),
		Degraded:      j.degraded.Load(),
	}
}

// Close syncs and closes every open shard segment. The first error is
// returned — callers are expected to propagate it into
// checkpoint_errors_total and the degraded state rather than log-and-drop:
// a failed close means the tail of the journal may not be durable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var firstErr error
	for _, w := range j.shards {
		w.mu.Lock()
		if w.f != nil {
			if !w.broken && w.unsynced > 0 {
				if err := w.f.Sync(); err != nil && firstErr == nil {
					j.stats.syncFailures.Add(1)
					firstErr = fmt.Errorf("resilience: sync checkpoint segment: %w", err)
				}
			}
			if err := w.f.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("resilience: close checkpoint segment: %w", err)
			}
			w.f = nil
		}
		w.mu.Unlock()
	}
	j.shards = map[int]*shardWriter{}
	if firstErr != nil {
		j.degraded.Store(true)
	}
	return firstErr
}

// segRecord is one key's winning record during a journal scan.
type segRecord struct {
	seq  int64
	file int // index into the sorted segment list (legacy tie-break)
	raw  []byte
	val  json.RawMessage
}

type scanStats struct {
	torn     int
	segments int
	records  int
}

// scanJournal reads every .jsonl segment in dir (sorted by name) and
// resolves the last complete record per key: highest sequence number wins;
// sequence ties — legacy records without one — fall back to (file, line)
// order over the sorted names, which is deterministic regardless of
// directory iteration order. Torn or corrupt lines anywhere in a segment
// (not just the tail) are skipped and counted.
func scanJournal(fs FS, dir string) (map[string]*segRecord, scanStats, error) {
	var st scanStats
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, st, fmt.Errorf("read checkpoint dir: %w", err)
	}
	out := map[string]*segRecord{}
	for _, name := range names {
		if !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		fileIdx := st.segments
		st.segments++
		f, err := fs.Open(joinPath(dir, name))
		if err != nil {
			return nil, st, fmt.Errorf("open checkpoint segment: %w", err)
		}
		r := bufio.NewReaderSize(f, 1<<16)
		for {
			line, err := r.ReadBytes('\n')
			complete := err == nil
			if len(line) > 0 {
				var rec journalRecord
				if complete && json.Unmarshal(line, &rec) == nil && rec.K != "" {
					st.records++
					prev := out[rec.K]
					// Last complete record wins: higher seq, or — for
					// legacy seq-less ties — later (file, line) position.
					if prev == nil || rec.S > prev.seq || (rec.S == prev.seq && fileIdx >= prev.file) {
						out[rec.K] = &segRecord{
							seq: rec.S, file: fileIdx,
							raw: append([]byte(nil), line...),
							val: rec.V,
						}
					}
				} else {
					// Torn write (no trailing newline, or glued partial
					// bytes mid-segment) or corrupt line: drop it; the
					// caller rescans the domain deterministically.
					st.torn++
				}
			}
			if err != nil {
				if err != io.EOF {
					f.Close()
					return nil, st, fmt.Errorf("read checkpoint segment: %w", err)
				}
				break
			}
		}
		f.Close()
	}
	return out, st, nil
}

// Replay reads every segment in dir and returns the last complete record
// per key plus the number of torn/unparseable lines skipped. A missing
// directory is not an error — it replays to an empty map. Duplicate keys
// resolve deterministically (see scanJournal) no matter how the records
// are spread across shard segments.
func Replay(dir string) (map[string]json.RawMessage, int, error) {
	return ReplayFS(nil, dir)
}

// ReplayFS is Replay through an injected filesystem (nil = the real one).
func ReplayFS(fs FS, dir string) (map[string]json.RawMessage, int, error) {
	latest, st, err := scanJournal(fsOrOS(fs), dir)
	if err != nil {
		return nil, 0, fmt.Errorf("resilience: %w", err)
	}
	out := make(map[string]json.RawMessage, len(latest))
	for k, rec := range latest {
		out[k] = rec.val
	}
	return out, st.torn, nil
}

// sortedKeys returns m's keys in sorted order (deterministic compaction
// output).
func sortedKeys(m map[string]*segRecord) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
