package resilience

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// looseJSON marshals itself as indented JSON without HTML escaping, so
// json.Marshal's compaction and escaping pass has work to do on it.
type looseJSON struct{ S string }

func (l looseJSON) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]string{"s": l.S, "html": "<&>"}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// lineFS serves one segment holding data, for replaying a single line
// without touching disk.
type lineFS struct {
	FS
	data []byte
}

func (l lineFS) ReadDir(string) ([]string, error) { return []string{segmentName(0, 1)}, nil }

func (l lineFS) Open(string) (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(l.data)), nil
}

// FuzzJournalLine: the hand-assembled record line must equal
// json.Marshal(journalRecord{K, S, V}) plus "\n" byte for byte, and replay
// must read it back as that record.
func FuzzJournalLine(f *testing.F) {
	f.Add("w3/v4/example.com", int64(1<<32+1), "plain")
	f.Add("<a&b>", int64(0), "x<y>&z")
	f.Add(`quote"back\slash`, int64(-5), "line\u2028para\u2029")
	f.Add("\xff\xfeinvalid", int64(42), "\xc3(")
	f.Add("", int64(7), "")
	f.Add("tab\tnl\n\x7f", int64(math.MaxInt64), "\x00ctl")
	f.Add("sep\u2028\u2029", int64(math.MinInt64), "é")
	f.Fuzz(func(t *testing.T, key string, seq int64, val string) {
		for _, v := range []any{val, map[string]any{"s": val, "n": seq}, looseJSON{val}} {
			raw, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(journalRecord{K: key, S: seq, V: raw})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			got := appendRecordLine(nil, key, seq, raw)
			if !bytes.Equal(got, want) {
				t.Fatalf("line mismatch for key %q seq %d value %T\n got %s\nwant %s", key, seq, v, got, want)
			}

			var rec journalRecord
			if err := json.Unmarshal(want, &rec); err != nil {
				t.Fatal(err)
			}
			out, st, err := scanJournal(lineFS{data: got}, "")
			if err != nil {
				t.Fatal(err)
			}
			if rec.K == "" {
				// Keyless lines are not records; replay skips them.
				if len(out) != 0 || st.torn != 1 {
					t.Fatalf("keyless line replayed as %d records, %d torn", len(out), st.torn)
				}
				continue
			}
			r := out[rec.K]
			if r == nil || r.seq != rec.S || !bytes.Equal(r.val, rec.V) || !bytes.Equal(r.raw, got) {
				t.Fatalf("line %s replayed as %+v", got, r)
			}
		}
	})
}

// discardFS journals into the void: appends cost encoding and assembly
// only, not the write syscall, so the figure is comparable across hosts.
type discardFS struct{ FS }

func (discardFS) OpenAppend(string) (File, error) { return discardFile{}, nil }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// benchValue is shaped like a journaled domain result: a few names, a
// connection list and durations, ~300 bytes of JSON.
type benchValue struct {
	Domain  string
	TLD     string
	Toplist string
	Conns   []benchConn
}

type benchConn struct {
	Target  string
	QUIC    bool
	Spin    string
	RTTs    []int64
	Err     string `json:",omitempty"`
	Version uint32
}

func newBenchValue(i int) benchValue {
	return benchValue{
		Domain: fmt.Sprintf("domain-%d.example.com", i), TLD: "com", Toplist: "tranco",
		Conns: []benchConn{
			{Target: "192.0.2.1:443", QUIC: true, Spin: "spin", RTTs: []int64{21000000, 23500000, 19800000}, Version: 1},
			{Target: "www.example.com:443", Err: "timeout: no response"},
		},
	}
}

// BenchmarkJournalAppend measures one Append: marshalling the value and
// assembling its record line.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := OpenJournalWith(b.TempDir(), JournalConfig{FS: discardFS{OSFS}})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 1024)
	vals := make([]benchValue, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("w3/v4/domain-%d.example.com", i)
		vals[i] = newBenchValue(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(keys)
		if err := j.Append(0, keys[k], vals[k]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJournalOpen opens a journal over 8 segments holding 1× and 8×
// the records. Opening lists the directory and reads no record, so the
// two must cost the same; scripts/bench.sh gates their ratio.
func BenchmarkJournalOpen(b *testing.B) {
	const segments, perSegment = 8, 256
	for _, mult := range []int{1, 8} {
		b.Run(fmt.Sprintf("records-%dx", mult), func(b *testing.B) {
			dir := b.TempDir()
			j, err := OpenJournal(dir)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < segments*perSegment*mult; i++ {
				if err := j.Append(i%segments, fmt.Sprintf("w3/v4/domain-%d.example.com", i), newBenchValue(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			if names, _ := OSFS.ReadDir(dir); len(names) != segments || !strings.HasPrefix(names[0], "shard-") {
				b.Fatalf("journal holds %v, want %d shard segments", names, segments)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, err := OpenJournal(dir)
				if err != nil {
					b.Fatal(err)
				}
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
