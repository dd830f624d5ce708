package bits

import (
	"sort"
	"unsafe"
)

// sizeClasses are the Go allocator's small-object size classes
// (runtime/sizeclasses.go); TestAllocSizeMatchesRuntime holds the table to
// what the running runtime hands out.
var sizeClasses = [...]int{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
	288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280,
	1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528,
	6784, 6912, 8192, 9472, 9728, 10240, 10880, 12288, 13568, 14336, 16384, 18432,
	19072, 20480, 21760, 24576, 27264, 28672, 32768,
}

// pageSize is the allocator's page: an object past the largest size class
// takes whole pages.
const pageSize = 8192

// AllocSize returns the bytes the allocator hands out for an n-byte
// pointer-free object: the smallest size class that holds it, or whole pages
// for a large one. Memory accounting charges this rather than n, so what a
// structure reports is what the heap grows by.
func AllocSize(n int) int64 {
	if n <= 0 {
		return 0
	}
	if n > sizeClasses[len(sizeClasses)-1] {
		return int64((n + pageSize - 1) / pageSize * pageSize)
	}
	return int64(sizeClasses[sort.SearchInts(sizeClasses[:], n)])
}

// SliceAlloc returns AllocSize of s's backing array.
func SliceAlloc[T any](s []T) int64 {
	var zero T
	return AllocSize(cap(s) * int(unsafe.Sizeof(zero)))
}
