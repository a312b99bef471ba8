//go:build !linux && !darwin

package graph

import (
	"errors"
	"os"
)

// mmapFile fails on platforms without mmap, which sends MapSnapshotFile to
// the heap read.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errors.ErrUnsupported
}

func munmapFile(data []byte) error { return nil }
