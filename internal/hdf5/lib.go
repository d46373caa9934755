package hdf5

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Backend is where a File's bytes live: an MPI-IO file handle on a PFS for
// traced executions, or an in-memory buffer for legal-state replay.
type Backend interface {
	// ReadAll returns the current file contents.
	ReadAll() ([]byte, error)
	// WriteAt writes data at off; tag carries the object-map label
	// ("h5:superblock", "h5:snod:/g1", "h5:data:/g1/d1", ...) used for
	// trace correlation and semantic pruning.
	WriteAt(off int64, data []byte, tag string) error
}

// MemBackend is an in-memory Backend for replay and tests.
type MemBackend struct {
	Buf []byte
}

// ReadAll implements Backend.
func (m *MemBackend) ReadAll() ([]byte, error) {
	return append([]byte(nil), m.Buf...), nil
}

// WriteAt implements Backend.
func (m *MemBackend) WriteAt(off int64, data []byte, _ string) error {
	if end := off + int64(len(data)); end > int64(len(m.Buf)) {
		grown := make([]byte, end)
		copy(grown, m.Buf)
		m.Buf = grown
	}
	copy(m.Buf[off:], data)
	return nil
}

// dirtyExt is one modified extent awaiting flush.
type dirtyExt struct {
	size int
	tag  string
}

// File is an open HDF5 file with a write-back metadata/data cache: all
// modifications hit the in-memory image and reach the backend only at
// Flush/Close, in increasing address order (like the real metadata cache's
// flush-by-address), with no intervening syncs — the library relies
// entirely on the file system for persistence ordering, which is exactly
// the exposure the paper tests.
type File struct {
	be    Backend
	img   []byte
	dirty map[int64]dirtyExt
	sup   superBlock
}

// Format initialises a fresh HDF5 file on the backend: superblock and an
// empty root group, flushed immediately.
func Format(be Backend) (*File, error) {
	f := &File{be: be, dirty: map[int64]dirtyExt{}}
	f.img = make([]byte, SuperSize)
	f.sup = superBlock{EOF: SuperSize}
	rootOhdr := f.newGroupObjects("/")
	f.sup.Root = rootOhdr
	f.writeSuper()
	if err := f.Flush(); err != nil {
		return nil, err
	}
	return f, nil
}

// Open reads the file image from the backend and marks it open for write
// (the superblock status flag that h5clear clears).
func Open(be Backend) (*File, error) {
	img, err := be.ReadAll()
	if err != nil {
		return nil, err
	}
	f := &File{be: be, img: img, dirty: map[int64]dirtyExt{}}
	if err := decodeObject(f.img, 0, SigSuper, SuperSize, &f.sup); err != nil {
		return nil, fmt.Errorf("hdf5: open: %w", err)
	}
	f.sup.Status = 1
	f.writeSuper()
	return f, nil
}

// Image returns the current in-memory image (for inspection).
func (f *File) Image() []byte { return append([]byte(nil), f.img...) }

// Clone returns a copy of f that flushes to be: the image, the dirty set and
// the superblock are copied, so neither file's writes reach the other.
func (f *File) Clone(be Backend) *File {
	return &File{be: be, img: bytes.Clone(f.img), dirty: maps.Clone(f.dirty), sup: f.sup}
}

// WriteState writes to w everything a later op or flush of f depends on
// besides its backend — the image, the dirty extents in address order and
// the superblock — length-prefixed, so two files write the same bytes
// exactly when they are in the same state. w is meant to be a hash, so
// write errors are not reported.
func (f *File) WriteState(w io.Writer) {
	addrs := make([]int64, 0, len(f.dirty))
	for a := range f.dirty {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(f.img)))
	w.Write(b)
	w.Write(f.img)
	b = binary.LittleEndian.AppendUint64(b[:0], uint64(len(addrs)))
	for _, a := range addrs {
		d := f.dirty[a]
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
		b = binary.LittleEndian.AppendUint64(b, uint64(d.size))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(d.tag)))
		b = append(b, d.tag...)
	}
	for _, v := range []int64{f.sup.Root, f.sup.EOF, int64(f.sup.Status)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	w.Write(b)
}

// alloc reserves size bytes at EOF.
func (f *File) alloc(size int) int64 {
	addr := f.sup.EOF
	f.sup.EOF += int64(size)
	if int64(len(f.img)) < f.sup.EOF {
		grown := make([]byte, f.sup.EOF)
		copy(grown, f.img)
		f.img = grown
	}
	f.writeSuper()
	return addr
}

func (f *File) writeSuper() {
	copy(f.img, encodeObject(SigSuper, f.sup, SuperSize))
	f.dirty[0] = dirtyExt{size: SuperSize, tag: "h5:superblock"}
}

// writeObj serialises an object into the image and marks it dirty.
func (f *File) writeObj(addr int64, sig string, v any, size int, tag string) {
	copy(f.img[addr:], encodeObject(sig, v, size))
	f.dirty[addr] = dirtyExt{size: size, tag: tag}
}

// writeRaw writes raw bytes (chunk data) into the image and marks dirty.
func (f *File) writeRaw(addr int64, data []byte, tag string) {
	copy(f.img[addr:], data)
	f.dirty[addr] = dirtyExt{size: len(data), tag: tag}
}

// Flush writes every dirty extent to the backend in address order and
// clears the dirty set.
func (f *File) Flush() error {
	addrs := make([]int64, 0, len(f.dirty))
	for a := range f.dirty {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		d := f.dirty[a]
		if err := f.be.WriteAt(a, f.img[a:a+int64(d.size)], d.tag); err != nil {
			return err
		}
	}
	f.dirty = map[int64]dirtyExt{}
	return nil
}

// Close clears the status flag and flushes everything.
func (f *File) Close() error {
	f.sup.Status = 0
	f.writeSuper()
	return f.Flush()
}

// newGroupObjects allocates and writes the object header, B-tree, heap and
// first SNOD of a new group, returning the object header address.
func (f *File) newGroupObjects(path string) int64 {
	ohdrAddr := f.alloc(OhdrSize)
	treeAddr := f.alloc(TreeSize)
	heapAddr := f.alloc(HeapSize)
	snodAddr := f.alloc(SnodSize)
	f.writeObj(snodAddr, SigSnod, symbolNode{Entries: []symbolEntry{}}, SnodSize, "h5:snod:"+path)
	f.writeObj(heapAddr, SigHeap, localHeap{}, HeapSize, "h5:heap:"+path)
	f.writeObj(treeAddr, SigTree, treeNode{Leaf: true, Children: []int64{snodAddr}}, TreeSize, "h5:btree:"+path)
	f.writeObj(ohdrAddr, SigOhdr, objectHeader{Group: true, Btree: treeAddr, Heap: heapAddr}, OhdrSize, "h5:ohdr:"+path)
	return ohdrAddr
}

// lookup resolves a path to its object header address by walking the
// in-memory image (which reflects all cached modifications).
func (f *File) lookup(path string) (int64, objectHeader, error) {
	cur := f.sup.Root
	var oh objectHeader
	if err := decodeObject(f.img, cur, SigOhdr, OhdrSize, &oh); err != nil {
		return 0, oh, err
	}
	path = cleanPath(path)
	if path == "/" {
		return cur, oh, nil
	}
	for _, comp := range strings.Split(strings.TrimPrefix(path, "/"), "/") {
		if !oh.Group {
			return 0, oh, fmt.Errorf("hdf5: %q: not a group", path)
		}
		next, err := f.findEntry(oh, comp)
		if err != nil {
			return 0, oh, fmt.Errorf("hdf5: %q: %w", path, err)
		}
		cur = next
		if err := decodeObject(f.img, cur, SigOhdr, OhdrSize, &oh); err != nil {
			return 0, oh, err
		}
	}
	return cur, oh, nil
}

func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	for strings.Contains(p, "//") {
		p = strings.ReplaceAll(p, "//", "/")
	}
	if len(p) > 1 {
		p = strings.TrimSuffix(p, "/")
	}
	return p
}

// findEntry locates name in the group oh, returning the child ohdr address.
func (f *File) findEntry(oh objectHeader, name string) (int64, error) {
	var heap localHeap
	if err := decodeObject(f.img, oh.Heap, SigHeap, HeapSize, &heap); err != nil {
		return 0, err
	}
	snods, err := collectLeaves(f.img, oh.Btree, 0)
	if err != nil {
		return 0, err
	}
	for _, sa := range snods {
		var sn symbolNode
		if err := decodeObject(f.img, sa, SigSnod, SnodSize, &sn); err != nil {
			return 0, err
		}
		for _, e := range sn.Entries {
			n, err := heapName(&heap, e.NameOff)
			if err != nil {
				return 0, err
			}
			if n == name {
				return e.Ohdr, nil
			}
		}
	}
	return 0, fmt.Errorf("no such entry %q", name)
}

// insertEntry adds name -> childOhdr into the group at groupPath: the name
// goes into the local heap, the entry into the last SNOD (splitting into a
// new SNOD and updating the group B-tree when full — paper bug #9's path).
func (f *File) insertEntry(groupPath string, name string, childOhdr int64) error {
	gaddr, oh, err := f.lookup(groupPath)
	if err != nil {
		return err
	}
	if !oh.Group {
		return fmt.Errorf("hdf5: %q: not a group", groupPath)
	}
	_ = gaddr
	// Duplicate links are rejected, as in H5Dcreate/H5Lmove.
	if _, err := f.findEntry(oh, name); err == nil {
		return fmt.Errorf("hdf5: %q already has a link %q", groupPath, name)
	}
	var heap localHeap
	if err := decodeObject(f.img, oh.Heap, SigHeap, HeapSize, &heap); err != nil {
		return err
	}
	// Heap append.
	nameOff := heap.Used
	heap.Names = append(heap.Names[:min(len(heap.Names), heap.Used)], append([]byte(name), 0)...)
	heap.Used += len(name) + 1
	if heap.Used+16 > HeapSize-8 {
		return fmt.Errorf("hdf5: local heap of %q full", groupPath)
	}
	f.writeObj(oh.Heap, SigHeap, heap, HeapSize, "h5:heap:"+groupPath)

	// SNOD insert (last leaf, split when full).
	var tree treeNode
	if err := decodeObject(f.img, oh.Btree, SigTree, TreeSize, &tree); err != nil {
		return err
	}
	if !tree.Leaf {
		return fmt.Errorf("hdf5: %q: multi-level group B-trees not supported", groupPath)
	}
	lastSnod := tree.Children[len(tree.Children)-1]
	var sn symbolNode
	if err := decodeObject(f.img, lastSnod, SigSnod, SnodSize, &sn); err != nil {
		return err
	}
	if len(sn.Entries) < SnodCap {
		sn.Entries = append(sn.Entries, symbolEntry{NameOff: nameOff, Ohdr: childOhdr})
		f.writeObj(lastSnod, SigSnod, sn, SnodSize, "h5:snod:"+groupPath)
		return nil
	}
	// Split: a fresh SNOD holds the new entry; the B-tree gains a child.
	newSnod := f.alloc(SnodSize)
	f.writeObj(newSnod, SigSnod, symbolNode{Entries: []symbolEntry{{NameOff: nameOff, Ohdr: childOhdr}}}, SnodSize, "h5:snod:"+groupPath)
	tree.Children = append(tree.Children, newSnod)
	if len(tree.Children) > TreeCap {
		return fmt.Errorf("hdf5: group B-tree of %q full", groupPath)
	}
	f.writeObj(oh.Btree, SigTree, tree, TreeSize, "h5:btree:"+groupPath)
	return nil
}

// removeEntry deletes name from the group: the SNOD entry is removed and
// the heap name zeroed (freed), the deletion order of the paper's bug #11.
func (f *File) removeEntry(groupPath, name string) (int64, error) {
	_, oh, err := f.lookup(groupPath)
	if err != nil {
		return 0, err
	}
	var heap localHeap
	if err := decodeObject(f.img, oh.Heap, SigHeap, HeapSize, &heap); err != nil {
		return 0, err
	}
	snods, err := collectLeaves(f.img, oh.Btree, 0)
	if err != nil {
		return 0, err
	}
	for _, sa := range snods {
		var sn symbolNode
		if err := decodeObject(f.img, sa, SigSnod, SnodSize, &sn); err != nil {
			return 0, err
		}
		for i, e := range sn.Entries {
			n, err := heapName(&heap, e.NameOff)
			if err != nil {
				return 0, err
			}
			if n != name {
				continue
			}
			child := e.Ohdr
			sn.Entries = append(sn.Entries[:i], sn.Entries[i+1:]...)
			f.writeObj(sa, SigSnod, sn, SnodSize, "h5:snod:"+groupPath)
			// Zero the freed name in the heap.
			for k := e.NameOff; k < len(heap.Names) && heap.Names[k] != 0; k++ {
				heap.Names[k] = 0
			}
			f.writeObj(oh.Heap, SigHeap, heap, HeapSize, "h5:heap:"+groupPath)
			return child, nil
		}
	}
	return 0, fmt.Errorf("hdf5: %q has no entry %q", groupPath, name)
}

func splitGroupPath(p string) (group, name string) {
	p = cleanPath(p)
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:]
	}
	return p[:i], p[i+1:]
}

// CreateGroup creates a new group at path.
func (f *File) CreateGroup(path string) error {
	parent, name := splitGroupPath(path)
	ohdr := f.newGroupObjects(cleanPath(path))
	return f.insertEntry(parent, name, ohdr)
}

// CreateDataset creates a chunked rows×cols byte dataset (fill value 0).
func (f *File) CreateDataset(path string, rows, cols int) error {
	parent, name := splitGroupPath(path)
	size := rows * cols
	need := (size + ChunkSize - 1) / ChunkSize
	if need > TreeCap*TreeCap {
		return fmt.Errorf("hdf5: dataset %q too large (%d chunks)", path, need)
	}
	var chunks []int64
	for i := 0; i < need; i++ {
		ca := f.alloc(ChunkSize)
		f.writeRaw(ca, make([]byte, ChunkSize), "h5:data:"+cleanPath(path))
		chunks = append(chunks, ca)
	}
	treeAddr := f.writeChunkTree(cleanPath(path), 0, chunks)
	ohdrAddr := f.alloc(OhdrSize)
	f.writeObj(ohdrAddr, SigOhdr, objectHeader{Rows: rows, Cols: cols, ChunkTree: treeAddr}, OhdrSize, "h5:ohdr:"+cleanPath(path))
	return f.insertEntry(parent, name, ohdrAddr)
}

// writeChunkTree builds the chunk B-tree for the given chunk addresses,
// splitting into a two-level tree beyond TreeCap leaves (bug #14's shape).
// reuse, when non-zero, rewrites the existing root node address.
func (f *File) writeChunkTree(path string, reuse int64, chunks []int64) int64 {
	if len(chunks) <= TreeCap {
		addr := reuse
		if addr == 0 {
			addr = f.alloc(TreeSize)
		}
		f.writeObj(addr, SigTree, treeNode{Leaf: true, Children: chunks}, TreeSize, "h5:btree:"+path)
		return addr
	}
	var leaves []int64
	for i := 0; i < len(chunks); i += TreeCap {
		end := i + TreeCap
		if end > len(chunks) {
			end = len(chunks)
		}
		la := f.alloc(TreeSize)
		f.writeObj(la, SigTree, treeNode{Leaf: true, Children: chunks[i:end]}, TreeSize, "h5:btree:"+path)
		leaves = append(leaves, la)
	}
	root := reuse
	if root == 0 {
		root = f.alloc(TreeSize)
	}
	f.writeObj(root, SigTree, treeNode{Leaf: false, Children: leaves}, TreeSize, "h5:btree:"+path)
	return root
}

// WriteDataset stores data (row-major) into the dataset's chunks.
func (f *File) WriteDataset(path string, data []byte) error {
	_, oh, err := f.lookup(path)
	if err != nil {
		return err
	}
	if oh.Group {
		return fmt.Errorf("hdf5: %q: is a group", path)
	}
	size := oh.Rows * oh.Cols
	if len(data) > size {
		return fmt.Errorf("hdf5: %q: write of %d bytes exceeds dataset size %d", path, len(data), size)
	}
	chunks, err := collectLeaves(f.img, oh.ChunkTree, 0)
	if err != nil {
		return err
	}
	for i := 0; i*ChunkSize < len(data); i++ {
		end := (i + 1) * ChunkSize
		if end > len(data) {
			end = len(data)
		}
		block := make([]byte, ChunkSize)
		copy(block, data[i*ChunkSize:end])
		f.writeRaw(chunks[i], block, "h5:data:"+cleanPath(path))
	}
	return nil
}

// WriteDatasetAt stores data into the dataset starting at byte offset off
// (row-major), the slab form used by parallel ranks writing disjoint
// regions.
func (f *File) WriteDatasetAt(path string, off int, data []byte) error {
	_, oh, err := f.lookup(path)
	if err != nil {
		return err
	}
	if oh.Group {
		return fmt.Errorf("hdf5: %q: is a group", path)
	}
	size := oh.Rows * oh.Cols
	if off < 0 || off+len(data) > size {
		return fmt.Errorf("hdf5: %q: slab [%d,%d) exceeds dataset size %d", path, off, off+len(data), size)
	}
	chunks, err := collectLeaves(f.img, oh.ChunkTree, 0)
	if err != nil {
		return err
	}
	for pos := 0; pos < len(data); {
		g := off + pos
		ci := g / ChunkSize
		inChunk := g % ChunkSize
		n := ChunkSize - inChunk
		if rem := len(data) - pos; n > rem {
			n = rem
		}
		if ci >= len(chunks) {
			return fmt.Errorf("hdf5: %q: slab touches missing chunk %d", path, ci)
		}
		// Read-modify-write the chunk through the image.
		block := make([]byte, ChunkSize)
		copy(block, f.img[chunks[ci]:chunks[ci]+ChunkSize])
		copy(block[inChunk:], data[pos:pos+n])
		f.writeRaw(chunks[ci], block, "h5:data:"+cleanPath(path))
		pos += n
	}
	return nil
}

// FlushData flushes only the data-chunk extents, leaving metadata dirty —
// what a non-zero rank does at collective close, where rank 0 owns the
// metadata flush.
func (f *File) FlushData() error {
	addrs := make([]int64, 0, len(f.dirty))
	for a, d := range f.dirty {
		if strings.HasPrefix(d.tag, "h5:data:") {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		d := f.dirty[a]
		if err := f.be.WriteAt(a, f.img[a:a+int64(d.size)], d.tag); err != nil {
			return err
		}
		delete(f.dirty, a)
	}
	return nil
}

// ReadDataset returns the dataset contents.
func (f *File) ReadDataset(path string) ([]byte, error) {
	_, oh, err := f.lookup(path)
	if err != nil {
		return nil, err
	}
	chunks, err := collectLeaves(f.img, oh.ChunkTree, 0)
	if err != nil {
		return nil, err
	}
	size := oh.Rows * oh.Cols
	out := make([]byte, size)
	for i := 0; i*ChunkSize < size; i++ {
		if i >= len(chunks) {
			break
		}
		end := (i + 1) * ChunkSize
		if end > size {
			end = size
		}
		copy(out[i*ChunkSize:end], f.img[chunks[i]:])
	}
	return out, nil
}

// Resize grows a dataset to rows×cols: new chunks are allocated at EOF and
// the chunk B-tree is rewritten (splitting when the leaf overflows), then
// the object header is updated — the paper's bug #13/#14 write set.
func (f *File) Resize(path string, rows, cols int) error {
	addr, oh, err := f.lookup(path)
	if err != nil {
		return err
	}
	if oh.Group {
		return fmt.Errorf("hdf5: %q: is a group", path)
	}
	oldNeed := (oh.Rows*oh.Cols + ChunkSize - 1) / ChunkSize
	newNeed := (rows*cols + ChunkSize - 1) / ChunkSize
	if newNeed > TreeCap*TreeCap {
		return fmt.Errorf("hdf5: resize of %q too large (%d chunks)", path, newNeed)
	}
	chunks, err := collectLeaves(f.img, oh.ChunkTree, 0)
	if err != nil {
		return err
	}
	if len(chunks) > oldNeed {
		chunks = chunks[:oldNeed]
	}
	for i := oldNeed; i < newNeed; i++ {
		ca := f.alloc(ChunkSize)
		f.writeRaw(ca, make([]byte, ChunkSize), "h5:data:"+cleanPath(path))
		chunks = append(chunks, ca)
	}
	var tree treeNode
	reuse := oh.ChunkTree
	if err := decodeObject(f.img, oh.ChunkTree, SigTree, TreeSize, &tree); err != nil {
		return err
	}
	newRoot := f.writeChunkTree(cleanPath(path), reuse, chunks)
	oh.Rows, oh.Cols = rows, cols
	oh.ChunkTree = newRoot
	f.writeObj(addr, SigOhdr, oh, OhdrSize, "h5:ohdr:"+cleanPath(path))
	return nil
}

// Delete removes the dataset or group link at path (the storage is not
// reclaimed, as in HDF5 without h5repack).
func (f *File) Delete(path string) error {
	parent, name := splitGroupPath(path)
	_, err := f.removeEntry(parent, name)
	return err
}

// Move renames src to dst (H5Lmove): the entry is removed from the source
// group and inserted into the destination group; the object header moves
// untouched.
func (f *File) Move(src, dst string) error {
	srcParent, srcName := splitGroupPath(src)
	dstParent, dstName := splitGroupPath(dst)
	// Validate the destination before touching the source so a failed
	// move never detaches the object.
	if _, _, err := f.lookup(dstParent); err != nil {
		return err
	}
	if _, _, err := f.lookup(dst); err == nil {
		return fmt.Errorf("hdf5: move destination %q exists", dst)
	}
	child, err := f.removeEntry(srcParent, srcName)
	if err != nil {
		return err
	}
	return f.insertEntry(dstParent, dstName, child)
}

// SetAttrs stores an attribute string on the object at path (used by the
// NetCDF layer for its _NCProperties marker).
func (f *File) SetAttrs(path, attrs string) error {
	addr, oh, err := f.lookup(path)
	if err != nil {
		return err
	}
	oh.Attrs = attrs
	f.writeObj(addr, SigOhdr, oh, OhdrSize, "h5:ohdr:"+cleanPath(path))
	return nil
}

// State parses the in-memory image into its logical state.
func (f *File) State() *LogicalState {
	return Parse(f.img, false)
}

// DimsArg encodes dataset dimensions for trace-op arguments.
func DimsArg(rows, cols int) []byte {
	b, _ := json.Marshal([2]int{rows, cols})
	return b
}

// ParseDims decodes a DimsArg.
func ParseDims(b []byte) (rows, cols int, err error) {
	var d [2]int
	if err := json.Unmarshal(b, &d); err != nil {
		return 0, 0, err
	}
	return d[0], d[1], nil
}
