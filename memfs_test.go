package pdtstore

// memFS is the file system the fault tests put under the vfs seam. Every file
// lives in memory and every operation is numbered; before operation k the
// test can fail that operation once, flip a bit in what it reads, run a
// callback, or crash. A crash fails that operation and every later one
// without effect, and reboot then leaves each file holding exactly the bytes
// its last successful Sync covered. Directory operations (create, rename,
// remove, truncate) are durable when they return, which is what the store's
// best-effort directory syncs assume. Only the directory's LOCK file is real.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"pdtstore/internal/vfs"
)

// fsOp is one numbered file operation.
type fsOp struct {
	n    int    // index among the file system's operations, from 0
	kind string // open, write, read, sync, truncate, rename, remove, mkdir, syncdir
	path string
}

// fault is what memFS does at one operation.
type fault int

const (
	pass       fault = iota
	failOp           // the operation fails without effect
	shortWrite       // a write lands half its bytes, then fails
	flipBit          // a read returns its bytes with one bit flipped
	crashOp          // this and every later operation fail without effect
)

var errCrashed = errors.New("memfs: crashed")

type memNode struct {
	data   []byte
	synced int // the prefix of data the last successful Sync covered
}

type memFS struct {
	mu      sync.Mutex
	files   map[string]*memNode
	dirs    map[string]bool
	n       int
	crashAt int // the operation the file system crashes at
	crashed bool
	at      func(fsOp) fault // consulted before every operation; nil passes all
}

// installMemFS puts an empty memFS under the seam for the rest of the test.
func installMemFS(t testing.TB) *memFS {
	f := &memFS{files: map[string]*memNode{}, dirs: map[string]bool{}, crashAt: math.MaxInt}
	vfs.FS = f
	t.Cleanup(func() { vfs.FS = vfs.OS{} })
	return f
}

// crashIn makes the k-th operation from now the crash point.
func (f *memFS) crashIn(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = f.n + k
}

// reboot ends a crash: each file drops the bytes no Sync covered, and every
// fault is disarmed.
func (f *memFS) reboot() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, nd := range f.files {
		nd.data = append([]byte(nil), nd.data[:nd.synced]...)
	}
	f.crashed, f.crashAt, f.at = false, math.MaxInt, nil
}

// clone returns an independent copy of f's durable state, not installed.
func (f *memFS) clone() *memFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := &memFS{files: map[string]*memNode{}, dirs: maps.Clone(f.dirs), crashAt: math.MaxInt}
	for p, nd := range f.files {
		c.files[p] = &memNode{data: append([]byte(nil), nd.data[:nd.synced]...), synced: nd.synced}
	}
	return c
}

// begin numbers one operation and decides its fault.
func (f *memFS) begin(kind, path string) (fault, error) {
	f.mu.Lock()
	op := fsOp{n: f.n, kind: kind, path: path}
	f.n++
	if op.n >= f.crashAt {
		f.crashed = true
	}
	crashed, at := f.crashed, f.at
	f.mu.Unlock()
	if crashed {
		return crashOp, errCrashed
	}
	ft := pass
	if at != nil {
		ft = at(op)
	}
	switch ft {
	case crashOp:
		f.mu.Lock()
		f.crashed = true
		f.mu.Unlock()
		return ft, errCrashed
	case failOp:
		return ft, fmt.Errorf("memfs: injected %s failure: %w", kind, syscall.EIO)
	}
	return ft, nil
}

func notExist(op, path string) error { return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist} }

func (f *memFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	if _, err := f.begin("open", name); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	nd := f.files[name]
	switch {
	case nd != nil && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case nd == nil && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case nd == nil:
		nd = &memNode{}
		f.files[name] = nd
	case flag&os.O_TRUNC != 0:
		nd.data, nd.synced = nil, 0
	}
	return &memFile{fs: f, path: name, nd: nd, append: flag&os.O_APPEND != 0}, nil
}

func (f *memFS) Rename(oldpath, newpath string) error {
	if _, err := f.begin("rename", newpath); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	nd := f.files[oldpath]
	if nd == nil {
		return notExist("rename", oldpath)
	}
	delete(f.files, oldpath)
	f.files[newpath] = nd
	return nil
}

func (f *memFS) Remove(name string) error {
	if _, err := f.begin("remove", name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.files[name] == nil {
		return notExist("remove", name)
	}
	delete(f.files, name)
	return nil
}

func (f *memFS) Truncate(name string, size int64) error {
	if _, err := f.begin("truncate", name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	nd := f.files[name]
	if nd == nil {
		return notExist("truncate", name)
	}
	nd.truncate(size)
	return nil
}

func (f *memFS) MkdirAll(path string, perm fs.FileMode) error {
	if _, err := f.begin("mkdir", path); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for d := path; !f.dirs[d] && d != filepath.Dir(d); d = filepath.Dir(d) {
		f.dirs[d] = true
	}
	return nil
}

func (f *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var out []fs.DirEntry
	for p, nd := range f.files {
		if filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{filepath.Base(p), int64(len(nd.data)), false}))
		}
	}
	for d := range f.dirs {
		if filepath.Dir(d) == name && d != name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{filepath.Base(d), 0, true}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (f *memFS) Stat(name string) (fs.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if nd := f.files[name]; nd != nil {
		return memInfo{filepath.Base(name), int64(len(nd.data)), false}, nil
	}
	if f.dirs[name] {
		return memInfo{filepath.Base(name), 0, true}, nil
	}
	return nil, notExist("stat", name)
}

func (f *memFS) SyncDir(dir string) { f.begin("syncdir", dir) }

func (nd *memNode) truncate(size int64) {
	if int(size) <= len(nd.data) {
		nd.data = nd.data[:size]
	} else {
		nd.data = append(nd.data, make([]byte, int(size)-len(nd.data))...)
	}
	nd.synced = min(nd.synced, int(size))
}

type memFile struct {
	fs     *memFS
	path   string
	nd     *memNode
	off    int64
	append bool
}

func (h *memFile) Write(p []byte) (int, error) {
	ft, err := h.fs.begin("write", h.path)
	if err != nil {
		return 0, err
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.append {
		h.off = int64(len(h.nd.data))
	}
	if ft == shortWrite {
		p, err = p[:len(p)/2], fmt.Errorf("memfs: injected short write: %w", syscall.ENOSPC)
	}
	if end := int(h.off) + len(p); end > len(h.nd.data) {
		h.nd.data = append(h.nd.data, make([]byte, end-len(h.nd.data))...)
	}
	copy(h.nd.data[h.off:], p)
	h.off += int64(len(p))
	return len(p), err
}

func (h *memFile) ReadAt(p []byte, off int64) (int, error) {
	ft, err := h.fs.begin("read", h.path)
	if err != nil {
		return 0, err
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	n := 0
	if off < int64(len(h.nd.data)) {
		n = copy(p, h.nd.data[off:])
	}
	if ft == flipBit && n > 0 {
		p[n/2] ^= 0x10
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memFile) Read(p []byte) (int, error) {
	n, err := h.ReadAt(p, h.off)
	h.off += int64(n)
	if n > 0 && err == io.EOF {
		err = nil
	}
	return n, err
}

func (h *memFile) Sync() error {
	if _, err := h.fs.begin("sync", h.path); err != nil {
		return err
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.nd.synced = len(h.nd.data)
	return nil
}

func (h *memFile) Truncate(size int64) error {
	if _, err := h.fs.begin("truncate", h.path); err != nil {
		return err
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.nd.truncate(size)
	return nil
}

func (h *memFile) Stat() (fs.FileInfo, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return memInfo{filepath.Base(h.path), int64(len(h.nd.data)), false}, nil
}

func (h *memFile) Close() error { return nil }

type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
