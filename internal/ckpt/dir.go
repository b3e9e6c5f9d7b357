package ckpt

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
)

// Dir is where a Store keeps its generation files: a flat namespace
// of named byte images. The disk-fault decisions are made in Store
// before any byte reaches a Dir, so both backends see the same faults.
type Dir interface {
	// WriteFile stores data under name atomically and durably: a
	// reader sees either the old file or all of data.
	WriteFile(name string, data []byte) error
	// ReadFile returns a copy of the named file's bytes.
	ReadFile(name string) ([]byte, error)
	// Remove deletes the named file.
	Remove(name string) error
	// List returns the names of the files the directory holds.
	List() ([]string, error)
}

// OSDir is a directory on disk. WriteFile goes through a temp file,
// fsync, rename and a directory fsync, so a crash at any point leaves
// either the old generation or the new one. List creates a missing
// directory, which makes opening a store what creates it.
type OSDir string

// WriteFile writes data via temp file + fsync + rename, then fsyncs
// the directory so the rename itself is durable. The directory fsync
// is best effort: some filesystems (and sandboxes) refuse it, and the
// rename is atomic either way.
func (d OSDir) WriteFile(name string, data []byte) error {
	tmp, err := os.CreateTemp(string(d), ".tmp-"+name+"-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(string(d), name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if dir, err := os.Open(string(d)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

func (d OSDir) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(string(d), name))
}

func (d OSDir) Remove(name string) error {
	return os.Remove(filepath.Join(string(d), name))
}

func (d OSDir) List() ([]string, error) {
	if err := os.MkdirAll(string(d), 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(string(d))
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

// memDir is a Dir held in memory: a map from name to bytes. A write is
// atomic because it replaces one map entry, and durable for as long as
// the process lives, which is all an in-process resume cut needs.
type memDir map[string][]byte

// NewMemDir returns an empty in-memory Dir.
func NewMemDir() Dir { return memDir{} }

func (m memDir) String() string { return "memory" }

func (m memDir) WriteFile(name string, data []byte) error {
	m[name] = bytes.Clone(data)
	return nil
}

func (m memDir) ReadFile(name string) ([]byte, error) {
	data, ok := m[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return bytes.Clone(data), nil
}

func (m memDir) Remove(name string) error {
	if _, ok := m[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m, name)
	return nil
}

func (m memDir) List() ([]string, error) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	return names, nil
}
