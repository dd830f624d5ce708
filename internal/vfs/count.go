package vfs

import "sync/atomic"

// SyncCounter wraps an FS and counts the File.Sync calls made on files
// created through it, failed ones included: the number of flushes a code
// path asks the device for, which repeats exactly where a timing does not.
// Tests pin barrier behaviour with it (a commit that dirtied k journals syncs
// k files) and benchmarks report it as fsyncs per op.
type SyncCounter struct {
	FS
	n atomic.Int64
}

// Syncs returns the number of File.Sync calls so far.
func (c *SyncCounter) Syncs() int64 { return c.n.Load() }

func (c *SyncCounter) Create(name string) (File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return countedFile{File: f, n: &c.n}, nil
}

type countedFile struct {
	File
	n *atomic.Int64
}

func (f countedFile) Sync() error {
	f.n.Add(1)
	return f.File.Sync()
}
