//go:build !linux

package serve

import "errors"

// dirWatcher has no implementation off Linux: watchDir fails, the caller
// counts a watch error and its poll ticker does all the waking.
type dirWatcher struct{}

func watchDir(dir string, on func(dirEvent)) (*dirWatcher, error) {
	return nil, errors.New("serve: directory watching needs inotify (Linux)")
}

// Close is a no-op.
func (w *dirWatcher) Close() {}
