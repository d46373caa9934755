package hdf5

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParse hammers the h5check parser with mutated file images: parsing
// must never panic and must classify every image as either cleanly
// readable or corrupt with a reason — the property the golden-master
// comparison relies on when crash states tear metadata.
func FuzzParse(f *testing.F) {
	be := &MemBackend{}
	file, err := Format(be)
	if err != nil {
		f.Fatal(err)
	}
	if err := file.CreateGroup("/g1"); err != nil {
		f.Fatal(err)
	}
	if err := file.CreateDataset("/g1/d1", 4, 4); err != nil {
		f.Fatal(err)
	}
	if err := file.WriteDataset("/g1/d1", []byte("0123456789abcdef")); err != nil {
		f.Fatal(err)
	}
	if err := file.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(be.Buf)
	f.Add(be.Buf[:len(be.Buf)/2])
	f.Add([]byte{})
	f.Add([]byte("\x89HDFgarbage"))

	f.Fuzz(func(t *testing.T, img []byte) {
		st := Parse(img, false)
		// Serialisation must be total and stable.
		s1, s2 := st.Serialize(), st.Serialize()
		if s1 != s2 {
			t.Fatal("Serialize is not deterministic")
		}
		// Strict mode must be at least as corrupt as lazy mode.
		strict := Parse(img, true)
		if strict.Readable() && !st.Readable() {
			t.Fatal("strict parse readable where lazy parse is corrupt")
		}
		// The tools must be total too.
		_, _ = Clear(img, true)
		_, _ = Inspect(img)
		_, _ = Status(img)
	})
}

// extentTarget returns a fresh decode target of one of the five extent
// types (kind mod 5), zero or pre-filled with values a payload may or may
// not overwrite.
func extentTarget(kind uint8, filled bool) any {
	switch kind % 5 {
	case 0:
		if filled {
			return &superBlock{Root: 64, EOF: 4096, Status: 1}
		}
		return &superBlock{}
	case 1:
		if filled {
			return &objectHeader{Group: true, Btree: 160, Heap: 320, Rows: 4, Cols: 4, ChunkTree: 480, Attrs: "a=b"}
		}
		return &objectHeader{}
	case 2:
		if filled {
			return &treeNode{Leaf: true, Children: []int64{1, 2, 3}}
		}
		return &treeNode{}
	case 3:
		if filled {
			return &symbolNode{Entries: []symbolEntry{{NameOff: 1, Ohdr: 2}, {NameOff: 3, Ohdr: 4}}}
		}
		return &symbolNode{}
	default:
		if filled {
			return &localHeap{Used: 3, Names: []byte("g1\x00")}
		}
		return &localHeap{}
	}
}

// FuzzDecodeCanonical holds the fast path to its oracle: whenever
// decodeCanonical accepts a payload, json.Unmarshal into an equal target
// succeeds and yields a deep-equal value (nil and empty slices apart), and
// a rejected payload leaves the target untouched for json.Unmarshal.
func FuzzDecodeCanonical(f *testing.F) {
	seeds := []struct {
		kind uint8 // as extentTarget reads it
		v    any
	}{
		{0, superBlock{Root: 64, EOF: 1 << 40, Status: 1}},
		{1, objectHeader{Group: true, Btree: 160, Heap: 320, Attrs: "_NCProperties=netcdf"}},
		{1, objectHeader{Rows: 10, Cols: 10, ChunkTree: 1024}},
		{2, treeNode{Leaf: true, Children: []int64{576, 992}}},
		{2, treeNode{}},
		{3, symbolNode{Entries: []symbolEntry{{NameOff: 0, Ohdr: 672}, {NameOff: 3, Ohdr: -1}}}},
		{3, symbolNode{Entries: []symbolEntry{}}},
		{4, localHeap{Used: 6, Names: []byte("g1\x00g2\x00")}},
		{4, localHeap{}},
	}
	for _, seed := range seeds {
		payload, err := json.Marshal(seed.v)
		if err != nil {
			f.Fatal(err)
		}
		for _, filled := range []bool{false, true} {
			f.Add(payload, seed.kind, filled)
			f.Add(payload[:len(payload)/2], seed.kind, filled)
			f.Add(payload[:len(payload)-1], seed.kind, filled)
			for _, i := range []int{1, len(payload) / 3, len(payload) - 2} {
				flipped := bytes.Clone(payload)
				flipped[i] ^= 0x20
				f.Add(flipped, seed.kind, filled)
			}
		}
	}
	// Edge cases at the border of the canonical form, each on both sides.
	for _, edge := range []struct {
		kind    uint8
		payload string
	}{
		{0, `{"root":-0,"eof":1,"status":0}`},
		{0, `{"root":01,"eof":1,"status":0}`},
		{0, `{"root":1e3,"eof":1,"status":0}`},
		{0, `{"root":9223372036854775807,"eof":-9223372036854775808,"status":0}`},
		{0, `{"root":9223372036854775808,"eof":1,"status":0}`},
		{1, `{"group":true,"btree":0}`},
		{1, `{"group":true,"heap":1,"btree":2}`},
		{1, `{"group":false,"attrs":"\u003c"}`},
		{1, `{"group":false,"attrs":"é<>&"}`},
		{1, "{\"group\":false,\"attrs\":\"\xff\"}"},
		{2, `{"leaf":true,"children":[]}`},
		{2, `{"leaf":true,"children":[1,2]} `},
		{3, `{"entries":null}`},
		{3, `{"entries":[{"ohdr":1,"name":0}]}`},
		{4, `{"used":1,"names":""}`},
		{4, `{"used":1,"names":"YQ="}`},
		{4, `{"used":1,"names":"YR=="}`},
	} {
		f.Add([]byte(edge.payload), edge.kind, false)
		f.Add([]byte(edge.payload), edge.kind, true)
	}
	f.Add(make([]byte, 24), uint8(1), false)

	f.Fuzz(func(t *testing.T, payload []byte, kind uint8, filled bool) {
		got := extentTarget(kind, filled)
		if !decodeCanonical(payload, got) {
			if want := extentTarget(kind, filled); !reflect.DeepEqual(got, want) {
				t.Fatalf("rejected %q but changed the target to %+v", payload, got)
			}
			return
		}
		want := extentTarget(kind, filled)
		if err := json.Unmarshal(payload, want); err != nil {
			t.Fatalf("accepted %q, which json.Unmarshal refuses: %v", payload, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decodes to %+v, json.Unmarshal to %+v", payload, got, want)
		}
	})
}
