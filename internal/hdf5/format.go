// Package hdf5 implements a simplified-but-structural HDF5 library and file
// format: superblock, object headers, group symbol tables (B-tree + local
// heap + symbol-table nodes), and chunked datasets with chunk B-trees —
// the data structures whose persistence orderings produce the paper's
// HDF5-level bugs (Table 3, rows 9–15).
//
// Every on-disk object is a fixed-size extent starting with a 4-byte
// signature, a payload length and a JSON payload in the canonical form
// json.Marshal writes. Payloads are read by a reflection-free fast path
// (decodeCanonical) that accepts only that form; anything else goes to
// encoding/json, which is also the fast path's test oracle. Unpersisted
// extents read as zeros, so the parser fails on them exactly the way
// h5check does on a real corrupted file: bad signatures, name offsets
// beyond the heap, and addresses beyond the superblock's EOF ("addr
// overflow").
package hdf5

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Object signatures. The superblock signature matches HDF5's magic; the
// others are the real format's node signatures.
const (
	SigSuper = "\x89HDF"
	SigOhdr  = "OHDR"
	SigTree  = "TREE"
	SigHeap  = "HEAP"
	SigSnod  = "SNOD"
)

// Extent sizes. Scaled down from the real format but structurally faithful.
const (
	SuperSize = 64
	OhdrSize  = 96
	TreeSize  = 160
	SnodSize  = 256
	HeapSize  = 128
	// ChunkSize is the dataset chunk size in bytes (elements are 1 byte).
	ChunkSize = 16
	// SnodCap is the max entries per symbol table node; inserting beyond it
	// splits the node and updates the group B-tree (paper bug #9).
	SnodCap = 4
	// TreeCap is the max children per B-tree node; a chunk B-tree growing
	// beyond it gains a second level (paper bug #14).
	TreeCap = 4
)

// superBlock is the file superblock.
type superBlock struct {
	Root   int64 `json:"root"` // root group object header address
	EOF    int64 `json:"eof"`
	Status int   `json:"status"` // open-for-write status flags (h5clear)
}

// objectHeader describes a group or dataset.
type objectHeader struct {
	Group bool  `json:"group"`
	Btree int64 `json:"btree,omitempty"` // groups: symbol table B-tree
	Heap  int64 `json:"heap,omitempty"`  // groups: local name heap
	// Datasets:
	Rows      int    `json:"rows,omitempty"`
	Cols      int    `json:"cols,omitempty"`
	ChunkTree int64  `json:"chunktree,omitempty"`
	Attrs     string `json:"attrs,omitempty"` // e.g. NetCDF _NCProperties
}

// treeNode is a B-tree node: for group trees the leaves hold SNOD
// addresses; for chunk trees the leaves hold chunk addresses; internal
// nodes hold child tree-node addresses.
type treeNode struct {
	Leaf     bool    `json:"leaf"`
	Children []int64 `json:"children"`
}

// symbolNode (SNOD) holds directory entries of a group.
type symbolNode struct {
	Entries []symbolEntry `json:"entries"`
}

// symbolEntry maps a name (offset into the local heap) to an object header.
type symbolEntry struct {
	NameOff int   `json:"name"`
	Ohdr    int64 `json:"ohdr"`
}

// localHeap stores names as NUL-terminated strings.
type localHeap struct {
	Used  int    `json:"used"`
	Names []byte `json:"names"`
}

// encodeObject serialises an object into a fixed-size extent.
func encodeObject(sig string, v any, size int) []byte {
	payload, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("hdf5: marshal: %v", err))
	}
	if len(payload)+8 > size {
		panic(fmt.Sprintf("hdf5: object payload (%d bytes) exceeds extent size %d", len(payload), size))
	}
	out := make([]byte, size)
	copy(out, sig)
	binary.LittleEndian.PutUint32(out[4:], uint32(len(payload)))
	copy(out[8:], payload)
	return out
}

// decodeObject parses an extent, validating the signature. A canonical
// payload takes decodeCanonical's fast path; any other goes to
// json.Unmarshal, whose errors name the corruption.
func decodeObject(img []byte, addr int64, sig string, size int, v any) error {
	if addr < 0 || addr+int64(size) > int64(len(img)) {
		return fmt.Errorf("address %d beyond file end %d (addr overflow)", addr, len(img))
	}
	ext := img[addr : addr+int64(size)]
	if string(ext[:4]) != sig {
		return fmt.Errorf("wrong %s signature at address %d (found %q)", strings.TrimSpace(sigName(sig)), addr, printable(ext[:4]))
	}
	n := binary.LittleEndian.Uint32(ext[4:])
	if int(n)+8 > size {
		return fmt.Errorf("corrupt %s length at address %d", sigName(sig), addr)
	}
	payload := ext[8 : 8+n]
	if decodeCanonical(payload, v) {
		return nil
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("corrupt %s payload at address %d: %v", sigName(sig), addr, err)
	}
	return nil
}

func sigName(sig string) string {
	switch sig {
	case SigSuper:
		return "superblock"
	case SigOhdr:
		return "object header"
	case SigTree:
		return "B-tree"
	case SigHeap:
		return "local heap"
	case SigSnod:
		return "symbol table node"
	default:
		return "object"
	}
}

func printable(b []byte) string {
	out := make([]byte, 0, len(b))
	for _, c := range b {
		if c >= 32 && c < 127 {
			out = append(out, c)
		} else {
			out = append(out, '.')
		}
	}
	return string(out)
}

// heapName reads the NUL-terminated name at off.
func heapName(h *localHeap, off int) (string, error) {
	if off < 0 || off >= h.Used || off >= len(h.Names) {
		return "", fmt.Errorf("name offset %d beyond heap used length %d", off, h.Used)
	}
	end := off
	for end < len(h.Names) && h.Names[end] != 0 {
		end++
	}
	name := string(h.Names[off:end])
	if name == "" {
		return "", fmt.Errorf("empty name at heap offset %d", off)
	}
	return name, nil
}

// LogicalObject is one parsed object in the logical view of a file.
type LogicalObject struct {
	Path    string
	Group   bool
	Rows    int
	Cols    int
	Data    []byte
	Attrs   string
	Corrupt string // non-empty: why the object is unreadable
}

// LogicalState is the parsed, address-free logical content of a file: the
// golden-master comparison unit at the library layer.
type LogicalState struct {
	Objects []LogicalObject
	// FileError is non-empty when the file cannot be opened at all.
	FileError string
}

// Serialize renders the state canonically.
func (s *LogicalState) Serialize() string {
	if s.FileError != "" {
		return "UNOPENABLE: " + s.FileError + "\n"
	}
	objs := append([]LogicalObject(nil), s.Objects...)
	sort.Slice(objs, func(i, j int) bool { return objs[i].Path < objs[j].Path })
	var b strings.Builder
	for _, o := range objs {
		switch {
		case o.Corrupt != "":
			fmt.Fprintf(&b, "corrupt %s: %s\n", o.Path, o.Corrupt)
		case o.Group:
			fmt.Fprintf(&b, "group %s\n", o.Path)
		default:
			sum := sha256.Sum256(o.Data)
			fmt.Fprintf(&b, "dataset %s %dx%d %s", o.Path, o.Rows, o.Cols, hex.EncodeToString(sum[:8]))
			if o.Attrs != "" {
				fmt.Fprintf(&b, " attrs=%s", o.Attrs)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Readable reports whether every object parsed cleanly.
func (s *LogicalState) Readable() bool {
	if s.FileError != "" {
		return false
	}
	for _, o := range s.Objects {
		if o.Corrupt != "" {
			return false
		}
	}
	return true
}

// Parse walks a file image from the superblock and returns its logical
// state — the h5check pass. Structural damage inside one group or dataset
// is reported on that object; superblock damage makes the file unopenable.
// strict controls NetCDF-style eager opening: when true, any corrupt
// object makes the whole file unopenable (HDF5 error -101), matching
// NetCDF's behaviour in the paper's bug #15.
func Parse(img []byte, strict bool) *LogicalState {
	st := &LogicalState{}
	var sup superBlock
	if err := decodeObject(img, 0, SigSuper, SuperSize, &sup); err != nil {
		st.FileError = err.Error()
		return st
	}
	// Parse against an EOF-sized view: addresses beyond the superblock's
	// EOF are invalid even if the PFS file is longer, and a superblock EOF
	// beyond the actual file (later allocations never persisted) reads as
	// zeros, so the objects there fail their signature checks individually
	// — HDF5's lazy open. NetCDF's eager open (strict) then promotes any
	// such corruption to a whole-file error.
	v := img
	if sup.EOF <= int64(len(img)) {
		v = img[:sup.EOF]
	} else {
		v = make([]byte, sup.EOF)
		copy(v, img)
	}
	parseGroup(v, sup.Root, "/", st)

	if strict {
		for _, o := range st.Objects {
			if o.Corrupt != "" {
				st.Objects = nil
				st.FileError = fmt.Sprintf("HDF5 error [Errno -101]: %s: %s", o.Path, o.Corrupt)
				break
			}
		}
	}
	return st
}

// parseGroup parses the group whose object header is at addr.
func parseGroup(img []byte, addr int64, path string, st *LogicalState) {
	var oh objectHeader
	if err := decodeObject(img, addr, SigOhdr, OhdrSize, &oh); err != nil {
		st.Objects = append(st.Objects, LogicalObject{Path: path, Group: true, Corrupt: err.Error()})
		return
	}
	if !oh.Group {
		st.Objects = append(st.Objects, LogicalObject{Path: path, Group: true, Corrupt: "object header is not a group"})
		return
	}
	obj := LogicalObject{Path: path, Group: true, Attrs: oh.Attrs}

	var heap localHeap
	if err := decodeObject(img, oh.Heap, SigHeap, HeapSize, &heap); err != nil {
		obj.Corrupt = "local heap: " + err.Error()
		st.Objects = append(st.Objects, obj)
		return
	}
	snods, err := collectLeaves(img, oh.Btree, 0)
	if err != nil {
		obj.Corrupt = "symbol table B-tree: " + err.Error()
		st.Objects = append(st.Objects, obj)
		return
	}
	type childRef struct {
		name string
		ohdr int64
	}
	var children []childRef
	for _, sa := range snods {
		var sn symbolNode
		if err := decodeObject(img, sa, SigSnod, SnodSize, &sn); err != nil {
			obj.Corrupt = err.Error()
			st.Objects = append(st.Objects, obj)
			return
		}
		for _, e := range sn.Entries {
			name, err := heapName(&heap, e.NameOff)
			if err != nil {
				// A symbol entry whose name cannot be resolved corrupts the
				// whole group listing (h5check reports the group).
				obj.Corrupt = "symbol table entry: " + err.Error()
				st.Objects = append(st.Objects, obj)
				return
			}
			children = append(children, childRef{name: name, ohdr: e.Ohdr})
		}
	}
	st.Objects = append(st.Objects, obj)
	sort.Slice(children, func(i, j int) bool { return children[i].name < children[j].name })
	for _, c := range children {
		cpath := path + c.name
		if path != "/" {
			cpath = path + "/" + c.name
		}
		var coh objectHeader
		if err := decodeObject(img, c.ohdr, SigOhdr, OhdrSize, &coh); err != nil {
			st.Objects = append(st.Objects, LogicalObject{Path: cpath, Corrupt: err.Error()})
			continue
		}
		if coh.Group {
			parseGroup(img, c.ohdr, cpath, st)
		} else {
			parseDataset(img, c.ohdr, coh, cpath, st)
		}
	}
}

// parseDataset reads a chunked dataset.
func parseDataset(img []byte, addr int64, oh objectHeader, path string, st *LogicalState) {
	obj := LogicalObject{Path: path, Rows: oh.Rows, Cols: oh.Cols, Attrs: oh.Attrs}
	size := oh.Rows * oh.Cols
	chunks, err := collectLeaves(img, oh.ChunkTree, 0)
	if err != nil {
		obj.Corrupt = "chunk B-tree: " + err.Error()
		st.Objects = append(st.Objects, obj)
		return
	}
	need := (size + ChunkSize - 1) / ChunkSize
	if len(chunks) < need {
		obj.Corrupt = fmt.Sprintf("chunk B-tree lists %d chunks, dataset needs %d", len(chunks), need)
		st.Objects = append(st.Objects, obj)
		return
	}
	data := make([]byte, size)
	for i := 0; i < need; i++ {
		ca := chunks[i]
		if ca < 0 || ca+ChunkSize > int64(len(img)) {
			obj.Corrupt = fmt.Sprintf("chunk %d at address %d beyond EOF %d (addr overflow)", i, ca, len(img))
			st.Objects = append(st.Objects, obj)
			return
		}
		n := size - i*ChunkSize
		if n > ChunkSize {
			n = ChunkSize
		}
		copy(data[i*ChunkSize:], img[ca:ca+int64(n)])
	}
	obj.Data = data
	st.Objects = append(st.Objects, obj)
}

// collectLeaves walks a B-tree from addr collecting leaf children in order.
func collectLeaves(img []byte, addr int64, depth int) ([]int64, error) {
	if depth > 8 {
		return nil, fmt.Errorf("B-tree deeper than 8 levels at address %d", addr)
	}
	var node treeNode
	if err := decodeObject(img, addr, SigTree, TreeSize, &node); err != nil {
		return nil, err
	}
	if node.Leaf {
		return node.Children, nil
	}
	var out []int64
	for _, child := range node.Children {
		sub, err := collectLeaves(img, child, depth+1)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}
