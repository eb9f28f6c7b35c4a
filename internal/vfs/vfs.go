// Package vfs is the one seam every file operation of the durable store goes
// through: segment files, the MANIFEST and the WAL streams are created,
// written, read, synced, renamed, removed and truncated through FS, so a test
// can fail, corrupt or crash any one operation and decide what survives.
package vfs

import (
	"io"
	"io/fs"
	"os"
)

// File is an open file, as the store uses one.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
	Close() error
}

// System is the set of file operations the store performs.
type System interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm fs.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	// SyncDir makes dir's entries durable, best effort: some file systems
	// reject a directory fsync, and recovery handles an entry's old state.
	SyncDir(dir string)
}

// FS is the file system of every store in the process: the operating
// system's. Only tests replace it, and they put it back when done.
var FS System = OS{}

// OS is System over the os package.
type OS struct{}

// OpenFile is os.OpenFile.
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename is os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove is os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate is os.Truncate.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// MkdirAll is os.MkdirAll.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir is os.ReadDir.
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// Stat is os.Stat.
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// SyncDir fsyncs dir, ignoring every error.
func (OS) SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// ReadFile reads the whole of name through FS.
func ReadFile(name string) ([]byte, error) {
	f, err := FS.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	_, err = f.ReadAt(data, 0)
	return data, err
}
