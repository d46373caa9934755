package serve

// dirEvent is one change a dirWatcher saw in its directory.
type dirEvent struct {
	// name is the entry's base name; "" means the kernel dropped events and
	// the directory has to be read to learn what changed.
	name string
	// removed is true for a deletion, false for a rename into place.
	removed bool
}
