package main

import (
	"strings"
	"sync/atomic"
	"time"

	"locble/internal/core"
	"locble/internal/durable"
	"locble/internal/fleet"
)

// callStats counts and times one kind of call made through a wrapper.
type callStats struct {
	n, ns atomic.Int64
}

func (c *callStats) add(d time.Duration) {
	c.n.Add(1)
	c.ns.Add(int64(d))
}

func (c *callStats) reset() {
	c.n.Store(0)
	c.ns.Store(0)
}

// storeStats is what the traced run learns from the checkpoint-store
// wrapper and the filesystem wrapper under it.
type storeStats struct {
	save, load callStats
	sync       callStats // File.Sync and FS.SyncDir: every fsync
	walBytes   atomic.Int64
}

// storeTotals is a frozen copy of storeStats.
type storeTotals struct {
	saves, loads, syncs int64
	saveNS, loadNS      int64
	syncNS, walBytes    int64
}

func (s *storeStats) totals() storeTotals {
	if s == nil {
		return storeTotals{}
	}
	return storeTotals{
		saves: s.save.n.Load(), loads: s.load.n.Load(), syncs: s.sync.n.Load(),
		saveNS: s.save.ns.Load(), loadNS: s.load.ns.Load(),
		syncNS: s.sync.ns.Load(), walBytes: s.walBytes.Load(),
	}
}

func (s *storeStats) reset() {
	s.save.reset()
	s.load.reset()
	s.sync.reset()
	s.walBytes.Store(0)
}

// timedStore wraps a fleet.CheckpointStore, timing Save and Load and
// recording each as a span under the op in flight. It also forwards
// fleet.DurableStore — answering for an inner store that lacks it
// exactly as the fleet would treat that store — so the fleet's acked
// and buffered checkpoint accounting is the same with or without it.
type timedStore struct {
	inner fleet.CheckpointStore
	st    *storeStats
	tr    *tracer
}

func (w *timedStore) Save(beacon string, cp *core.SessionCheckpoint) error {
	t0 := time.Now()
	err := w.inner.Save(beacon, cp)
	t1 := time.Now()
	w.st.save.add(t1.Sub(t0))
	w.tr.child("durable.Save", t0, t1)
	return err
}

func (w *timedStore) Load(beacon string) (*core.SessionCheckpoint, bool, error) {
	t0 := time.Now()
	cp, ok, err := w.inner.Load(beacon)
	t1 := time.Now()
	w.st.load.add(t1.Sub(t0))
	w.tr.child("durable.Load", t0, t1)
	return cp, ok, err
}

func (w *timedStore) Delete(beacon string) error { return w.inner.Delete(beacon) }

func (w *timedStore) Durable() bool {
	if ds, ok := w.inner.(fleet.DurableStore); ok {
		return ds.Durable()
	}
	return false
}

func (w *timedStore) RecoveryCounts() (replayed, truncated, quarantined int64) {
	if ds, ok := w.inner.(fleet.DurableStore); ok {
		return ds.RecoveryCounts()
	}
	return 0, 0, 0
}

// countingFS wraps a durable.FS: every fsync (File.Sync and SyncDir) is
// counted and timed, and every byte appended to a WAL is counted.
type countingFS struct {
	durable.FS
	st *storeStats
	tr *tracer
}

func (c *countingFS) OpenAppend(name string) (durable.File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: strings.HasSuffix(name, ".wal")}, nil
}

func (c *countingFS) Create(name string) (durable.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: strings.HasSuffix(name, ".wal")}, nil
}

func (c *countingFS) SyncDir() error { return c.timedSync(c.FS.SyncDir) }

func (c *countingFS) timedSync(sync func() error) error {
	t0 := time.Now()
	err := sync()
	t1 := time.Now()
	c.st.sync.add(t1.Sub(t0))
	c.tr.child("durable.fsync", t0, t1)
	return err
}

type countingFile struct {
	durable.File
	fs  *countingFS
	wal bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.st.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error { return f.fs.timedSync(f.File.Sync) }
