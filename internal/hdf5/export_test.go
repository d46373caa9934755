package hdf5

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
)

// CanonicalExtent decodes ext, one whole extent as the library writes it,
// through decodeCanonical and through json.Unmarshal. sig is empty when ext
// is not a metadata extent (a data chunk, say); otherwise fast reports
// whether the fast path took the payload, and same whether it agreed with
// json.Unmarshal.
func CanonicalExtent(ext []byte) (sig string, fast, same bool) {
	kinds := []struct { // in extentTarget's order
		sig  string
		size int
	}{{SigSuper, SuperSize}, {SigOhdr, OhdrSize}, {SigTree, TreeSize}, {SigSnod, SnodSize}, {SigHeap, HeapSize}}
	for kind, k := range kinds {
		if len(ext) != k.size || string(ext[:4]) != k.sig {
			continue
		}
		payload := ext[8:min(len(ext), 8+int(binary.LittleEndian.Uint32(ext[4:])))]
		got, want := extentTarget(uint8(kind), false), extentTarget(uint8(kind), false)
		fast = decodeCanonical(payload, got)
		return k.sig, fast, fast && json.Unmarshal(payload, want) == nil && reflect.DeepEqual(got, want)
	}
	return "", false, false
}
