//go:build linux || darwin

package graph

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only and shared, so cold graph pages
// stream in through the page cache on first touch instead of being copied
// up front.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 || size > math.MaxInt {
		return nil, fmt.Errorf("graph: mmap size %d out of range", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("graph: mmap: %w", err)
	}
	return data, nil
}

func munmapFile(data []byte) error {
	return syscall.Munmap(data)
}
