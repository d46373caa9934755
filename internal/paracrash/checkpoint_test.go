package paracrash

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func ckptAt(t *testing.T) *Checkpoint {
	t.Helper()
	return OpenCheckpoint(filepath.Join(t.TempDir(), "ckpt.jsonl"))
}

// TestCheckpointRoundTrip journals verdicts, flushes, and resumes them from
// a fresh Checkpoint over the same file.
func TestCheckpointRoundTrip(t *testing.T) {
	c := ckptAt(t)
	if got, err := c.resume("cfg"); err != nil || len(got) != 0 {
		t.Fatalf("fresh resume = %v, %v", got, err)
	}
	want := map[string]Verdict{
		"f1|k1": {Class: "class:f1|k1", Consistent: true},
		"f1|k2": {Class: "class:f1|k2", Layer: "PFS", Consequence: "data loss", State: "s"},
		"f2|k1": {Class: "class:f2|k1", Consistent: true},
	}
	for k, v := range want {
		if err := c.record(k, v); err != nil {
			t.Fatalf("record(%s): %v", k, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	c2 := OpenCheckpoint(c.Path())
	got, err := c2.resume("cfg")
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed %d records, want %d", len(got), len(want))
	}
	for k, w := range want {
		if w.Key = hex.EncodeToString([]byte(k)); got[k] != w {
			t.Errorf("resumed %s = %+v, want %+v", k, got[k], w)
		}
	}
	if c2.Resumed() != 3 || len(c2.Warnings()) != 0 {
		t.Fatalf("Resumed=%d Warnings=%v", c2.Resumed(), c2.Warnings())
	}
}

// TestCheckpointSkippedNotJournaled: quarantined verdicts must never be
// journaled — a resumed run re-attempts them.
func TestCheckpointSkippedNotJournaled(t *testing.T) {
	c := ckptAt(t)
	if _, err := c.resume("cfg"); err != nil {
		t.Fatal(err)
	}
	if err := c.record("f|skip", Verdict{Skipped: true, Consequence: "quarantined"}); err != nil {
		t.Fatal(err)
	}
	if err := c.record("f|ok", Verdict{Consistent: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := OpenCheckpoint(c.Path()).resume("cfg")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["f|skip"]; ok {
		t.Fatal("skipped verdict was journaled")
	}
	if _, ok := got["f|ok"]; !ok {
		t.Fatal("real verdict missing from journal")
	}
}

// TestCheckpointTruncatedTail: chopping bytes off the last record — the
// artifact of dying mid-write when rename atomicity is lost — drops that
// record with a warning and keeps the prefix.
func TestCheckpointTruncatedTail(t *testing.T) {
	c := ckptAt(t)
	if _, err := c.resume("cfg"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a|1", "a|2", "a|3"} {
		if err := c.record(k, Verdict{Consistent: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Path(), data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := OpenCheckpoint(c.Path())
	got, err := c2.resume("cfg")
	if err != nil {
		t.Fatalf("resume over truncated journal: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("resumed %d records from truncated journal, want the 2 intact ones", len(got))
	}
	warns := strings.Join(c2.Warnings(), "\n")
	if !strings.Contains(warns, "damaged") {
		t.Fatalf("no truncation warning, got %q", warns)
	}
}

// TestCheckpointConfigMismatch: a journal from a different configuration is
// discarded with a warning, never resumed.
func TestCheckpointConfigMismatch(t *testing.T) {
	c := ckptAt(t)
	if _, err := c.resume("cfg-A"); err != nil {
		t.Fatal(err)
	}
	if err := c.record("a|1", Verdict{Consistent: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c2 := OpenCheckpoint(c.Path())
	got, err := c2.resume("cfg-B")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || c2.Resumed() != 0 {
		t.Fatalf("resumed %d records across a config change", len(got))
	}
	if warns := strings.Join(c2.Warnings(), "\n"); !strings.Contains(warns, "different configuration") {
		t.Fatalf("no config-mismatch warning, got %q", warns)
	}
}

// TestCheckpointVersionAndHeaderDamage: wrong version or an unparsable
// header both mean a fresh start with a warning, never an error. The v1, v2
// and v3 cases are journals as earlier formats wrote them: v1's fingerprint
// still carries the notsp/noinc fields version 2 dropped, v2's the norep
// field and per-record legal-set sizes version 3 dropped, v3's the mlo field
// and raw binary keys version 4 dropped, v4's the hand-formatted option list
// version 5 replaced by the options' JSON encoding.
func TestCheckpointVersionAndHeaderDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	cases := map[string]string{
		"version": `{"version":99,"config":"cfg"}` + "\n",
		"garbage": "not json at all\n",
		"empty":   "",
		"v1": `{"version":1,"config":"v1|ARVR|beegfs|pruning|pfs=2|lib=3|k=1|fm=0|mf=20000|ms=200000|mlo=20|mls=50000|nosem=false|notsp=false|norep=false|noinc=false"}` + "\n" +
			`{"key":"a|1","consistent":true}` + "\n",
		"v2": `{"version":2,"config":"v2|ARVR|beegfs|pruning|pfs=2|lib=3|k=1|fm=0|mf=20000|ms=200000|mlo=20|mls=50000|nosem=false|norep=false"}` + "\n" +
			`{"key":"a|1","consistent":true,"pfs_legal_n":3}` + "\n",
		"v3": `{"version":3,"config":"v3|ARVR|beegfs|pruning|pfs=2|lib=3|k=1|fm=0|mf=20000|ms=200000|mlo=20|mls=50000|nosem=false"}` + "\n" +
			`{"key":"\u0001\u0000|\u0003\u0000","consistent":true}` + "\n",
		"v4": `{"version":4,"config":"v4|beegfs|4|ARVR|0011223344556677|pruning|pfs=2|lib=3|k=1|fm=1|mf=20000|ms=200000|mls=50000|nosem=false"}` + "\n" +
			`{"key":"0a|0b","class":"0c","consistent":true}` + "\n",
		"dupkeys": fmt.Sprintf(`{"version":%d,"config":"cfg"}`, checkpointVersion) + "\n" + `{"key":"0a"}` + "\n" + `{"key":"0a"}` + "\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			c := OpenCheckpoint(path)
			got, err := c.resume("cfg")
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if len(c.Warnings()) == 0 {
				t.Fatalf("no warning for %s journal", name)
			}
			if len(name) == 2 && !strings.Contains(c.Warnings()[0], "checkpoint version") {
				t.Fatalf("%s journal: warning %q does not name the version", name, c.Warnings()[0])
			}
			if name == "dupkeys" {
				if len(got) != 1 {
					t.Fatalf("dup journal resumed %d records, want 1", len(got))
				}
			} else if len(got) != 0 {
				t.Fatalf("%s journal resumed %d records, want 0", name, len(got))
			}
		})
	}
}

// TestCheckpointAutoFlush: Every bounds how much an unclean death loses —
// the journal must hit disk without an explicit Flush once Every records
// accumulate.
func TestCheckpointAutoFlush(t *testing.T) {
	c := ckptAt(t)
	c.Every = 2
	if _, err := c.resume("cfg"); err != nil {
		t.Fatal(err)
	}
	if err := c.record("a|1", Verdict{Consistent: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(c.Path()); !os.IsNotExist(err) {
		t.Fatalf("journal flushed before Every records (stat err = %v)", err)
	}
	if err := c.record("a|2", Verdict{Consistent: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(c.Path()); err != nil {
		t.Fatalf("journal not flushed at Every records: %v", err)
	}
}

// testIdentity stands in for a session's identity in fingerprint tests.
const testIdentity = "beegfs|4|ARVR|0011223344556677"

// TestCheckpointConfigCoversVerdictKnobs: the fingerprint must move when a
// verdict-relevant option moves, and stay put for verdict-transparent ones.
func TestCheckpointConfigCoversVerdictKnobs(t *testing.T) {
	base := DefaultOptions()
	fp := checkpointConfig(testIdentity, base)

	changed := DefaultOptions()
	changed.Mode = ModeBrute
	if checkpointConfig(testIdentity, changed) == fp {
		t.Error("fingerprint ignores Mode")
	}
	if checkpointConfig("beegfs|4|WAL|0011223344556677", base) == fp {
		t.Error("fingerprint ignores the run identity")
	}

	transparent := DefaultOptions()
	transparent.Workers = 7
	if checkpointConfig(testIdentity, transparent) != fp {
		t.Error("fingerprint moves on a verdict-transparent option (Workers)")
	}
}

// TestCheckpointConfigCoversOptions walks Options and EmulatorConfig by
// reflection, from a brute-force and a pruning base, and holds every field
// to its tag: setting an untagged field to a different value must move the
// checkpoint fingerprint, and setting a field tagged json:"-" must not. A
// tagged field of EmulatorConfig must also be one emulatorConfig discards,
// so the engine never sees the caller's value. A field added to either
// struct is fingerprinted unless it is tagged.
func TestCheckpointConfigCoversOptions(t *testing.T) {
	// vary sets v to a value different from the one it holds.
	var vary func(name string, v reflect.Value)
	vary = func(name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Func:
			v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
				out := make([]reflect.Value, v.Type().NumOut())
				for i := range out {
					out[i] = reflect.Zero(v.Type().Out(i))
				}
				return out
			}))
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		case reflect.Struct:
			vary(name+"."+v.Type().Field(0).Name, v.Field(0))
		default:
			t.Fatalf("Options.%s: no way to vary a %s; extend this test", name, v.Kind())
		}
	}
	same := func(a, b reflect.Value) bool {
		if a.Kind() == reflect.Func {
			return a.Pointer() == b.Pointer()
		}
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}

	brute := DefaultOptions()
	brute.Mode = ModeBrute
	for _, base := range []Options{brute, DefaultOptions()} {
		fp := checkpointConfig(testIdentity, base)
		var walk func(prefix string, field func(*Options) reflect.Value, typ reflect.Type)
		walk = func(prefix string, field func(*Options) reflect.Value, typ reflect.Type) {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				name := prefix + f.Name
				get := func(o *Options) reflect.Value { return field(o).Field(i) }
				tagged := f.Tag.Get("json") == "-"
				if f.Type.Kind() == reflect.Struct && !tagged {
					walk(name+".", get, f.Type)
					continue
				}
				o := base
				vary(name, get(&o))
				moved := checkpointConfig(testIdentity, o) != fp
				switch {
				case tagged && moved:
					t.Errorf("%s base: Options.%s is tagged json:\"-\" but moves the fingerprint", base.Mode, name)
				case !tagged && !moved:
					t.Errorf("%s base: Options.%s reaches the run but not the checkpoint fingerprint; untag it or tag it json:\"-\" if it cannot change a verdict", base.Mode, name)
				case tagged && strings.HasPrefix(name, "Emulator."):
					seen := func(o Options) reflect.Value { return reflect.ValueOf(o.emulatorConfig()).FieldByName(f.Name) }
					if !same(seen(o), seen(base)) {
						t.Errorf("%s base: Options.%s is tagged json:\"-\" but reaches the emulator", base.Mode, name)
					}
				}
			}
		}
		walk("", func(o *Options) reflect.Value { return reflect.ValueOf(o).Elem() }, reflect.TypeOf(base))
	}
}

// TestCheckpointTornNewline: a journal whose last record lost its newline
// is torn to resume as it is to fsck — the record itself is complete and
// kept — and the next flush rewrites the file instead of gluing an append
// onto the unterminated line, so no acknowledged record is lost.
func TestCheckpointTornNewline(t *testing.T) {
	c := ckptAt(t)
	if _, err := c.resume("cfg"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a|1", "a|2", "a|3"} {
		if err := c.record(k, Verdict{Consistent: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Path(), bytes.TrimSuffix(data, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := OpenCheckpoint(c.Path())
	got, err := c2.resume("cfg")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("resumed %d records, want all 3", len(got))
	}
	if w := strings.Join(c2.Warnings(), "\n"); !strings.Contains(w, "newline") {
		t.Fatalf("no torn-tail warning, got %q", w)
	}
	if err := c2.record("a|4", Verdict{Consistent: true}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}

	c3 := OpenCheckpoint(c.Path())
	if got, err := c3.resume("cfg"); err != nil || len(got) != 4 || len(c3.Warnings()) != 0 {
		t.Fatalf("after the rewrite: %d records, warnings %v, err %v; want 4 clean", len(got), c3.Warnings(), err)
	}
}

// FuzzJournal feeds arbitrary bytes to ReadJournal, the one journal
// reader: it never panics; what it keeps, written back, reads clean and
// unchanged; and a record appended to a clean journal is read back after
// every record the journal already held.
func FuzzJournal(f *testing.F) {
	hdr := fmt.Sprintf(`{"version":%d,"config":"cfg"}`, checkpointVersion) + "\n"
	f.Add([]byte(hdr + `{"key":"0a","class":"c|01","consistent":true}` + "\n" + `{"key":"0b","layer":"pfs","state":"s"}` + "\n"))
	f.Add([]byte(hdr + `{"key":"0a"}` + "\n" + `{"key":"0A"}` + "\n" + `{"key":"0b","cons`))
	f.Add([]byte(hdr + `{"key":"0a"}`))
	f.Add([]byte(hdr + "not json\n" + `{"key":"0c"}` + "\n"))
	f.Add([]byte(hdr + `{"key":""}` + "\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ReadJournal(data)
		if err != nil {
			return
		}
		back, err := ReadJournal(j.Bytes())
		if err != nil || back.Torn != "" || back.Duplicates != 0 || !reflect.DeepEqual(back.Verdicts, j.Verdicts) {
			t.Fatalf("written back, the journal reads %+v (err %v), want clean %+v", back, err, j.Verdicts)
		}
		if j.Torn != "" {
			return
		}
		held := map[string]bool{}
		for _, v := range j.Verdicts {
			k, _ := v.stateKey()
			held[k] = true
		}
		key := "appended"
		for held[key] {
			key += "+"
		}
		v := Verdict{Key: hex.EncodeToString([]byte(key)), Consistent: true}
		more, err := ReadJournal(append(append([]byte(nil), data...), journalLines(nil, []Verdict{v})...))
		if err != nil || more.Torn != "" || !reflect.DeepEqual(more.Verdicts, append(j.Verdicts, v)) {
			t.Fatalf("after an append the journal reads %+v (err %v), want %+v then %+v", more, err, j.Verdicts, v)
		}
	})
}
