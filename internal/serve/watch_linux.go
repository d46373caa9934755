//go:build linux

package serve

import (
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
)

// dirWatcher reports the entries renamed into and deleted from one
// directory, through inotify. Every fleet record lands by rename (statefs)
// and leaves by unlink, so those two event kinds are the whole protocol.
// The kernel only sees changes made on this host: a writer on another node
// of a shared file system raises nothing here, which is why every wait that
// uses a watcher keeps its poll ticker.
type dirWatcher struct {
	f    *os.File
	done chan struct{} // closed when the read loop has exited
}

// watchDir starts a watcher over dir. on is called from one goroutine, in
// event order, and must not block.
func watchDir(dir string, on func(dirEvent)) (*dirWatcher, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, fmt.Errorf("serve: inotify init: %w", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_MOVED_TO|syscall.IN_DELETE); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("serve: inotify watch %s: %w", dir, err)
	}
	// A non-blocking descriptor makes the File pollable: Read parks in the
	// runtime poller and Close wakes it.
	w := &dirWatcher{f: os.NewFile(uintptr(fd), "inotify:"+dir), done: make(chan struct{})}
	go w.loop(on)
	return w, nil
}

// loop decodes inotify records until the descriptor is closed.
func (w *dirWatcher) loop(on func(dirEvent)) {
	defer close(w.done)
	var buf [16 << 10]byte
	for {
		n, err := w.f.Read(buf[:])
		if err != nil {
			return
		}
		// struct inotify_event: wd int32, mask, cookie, len uint32, then
		// len bytes of NUL-padded name.
		for off := 0; off+syscall.SizeofInotifyEvent <= n; {
			mask := binary.NativeEndian.Uint32(buf[off+4:])
			nameLen := int(binary.NativeEndian.Uint32(buf[off+12:]))
			name := buf[off+syscall.SizeofInotifyEvent : off+syscall.SizeofInotifyEvent+nameLen]
			off += syscall.SizeofInotifyEvent + nameLen
			for len(name) > 0 && name[len(name)-1] == 0 {
				name = name[:len(name)-1]
			}
			switch {
			case mask&syscall.IN_Q_OVERFLOW != 0:
				on(dirEvent{})
			case len(name) > 0:
				on(dirEvent{name: string(name), removed: mask&syscall.IN_DELETE != 0})
			}
		}
	}
}

// Close stops the watcher and waits for its goroutine. Safe on a nil
// watcher (one that could not start) and safe to repeat.
func (w *dirWatcher) Close() {
	if w == nil {
		return
	}
	w.f.Close()
	<-w.done
}
