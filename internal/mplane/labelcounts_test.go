package mplane

import (
	"encoding/binary"
	"testing"
)

// labelListsSep ends a label list in FuzzLabelCountsMatchHistogram's
// input, and labelListsTop stands for the top label of the domain.
const (
	labelListsSep = 0xFFFF
	labelListsTop = 0xFFFE
)

// decodeLabelLists reads a domain size n in [1, 65536] from the first two
// bytes of data, then label lists from the rest: each little-endian
// uint16 is a label mod n, labelListsTop is n-1 and labelListsSep ends
// the list. The last list ends with the data.
func decodeLabelLists(data []byte) (n int, lists [][]int32) {
	if len(data) < 2 {
		return 1, [][]int32{{}}
	}
	n = 1 + int(binary.LittleEndian.Uint16(data))
	list := []int32{}
	for data = data[2:]; len(data) >= 2; data = data[2:] {
		switch x := binary.LittleEndian.Uint16(data); x {
		case labelListsSep:
			lists = append(lists, list)
			list = []int32{}
		case labelListsTop:
			list = append(list, int32(n-1))
		default:
			list = append(list, int32(int(x)%n))
		}
	}
	return n, append(lists, list)
}

// encodeLabelLists is decodeLabelLists' inverse for labels below
// labelListsTop, used to write the seeds.
func encodeLabelLists(n int, lists ...[]uint16) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(n-1))
	for i, l := range lists {
		if i > 0 {
			b = binary.LittleEndian.AppendUint16(b, labelListsSep)
		}
		for _, x := range l {
			b = binary.LittleEndian.AppendUint16(b, x)
		}
	}
	return b
}

// FuzzLabelCountsMatchHistogram counts each decoded label list on one
// dense counter three ways — AddAll, Add per label, and AddAll of the
// first half then AddOf of the second — and requires every argmax to be
// the one Histogram, the hash counter the CDLP oracle uses, takes of the
// same list. Every list must leave the counter all-zero for the next (a
// count left behind changes a later argmax, and the last list's shows in
// a final scan), and once warm a bulk count of every list must allocate
// nothing.
func FuzzLabelCountsMatchHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeLabelLists(1, []uint16{}))
	f.Add(encodeLabelLists(10, []uint16{7}))
	f.Add(encodeLabelLists(10, []uint16{3, 3, 5, 5, 5, 3, 1}))
	f.Add(encodeLabelLists(65536, []uint16{0, labelListsTop, labelListsTop, 0, 9}))
	f.Add(encodeLabelLists(40, []uint16{}, []uint16{39, 0, 39}, []uint16{}, []uint16{2, 2, 1, 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, lists := decodeLabelLists(data)
		var c LabelCounts
		c.EnsureDomain(n)
		h := NewHistogram(4)
		for _, list := range lists {
			own := int32(len(list) % n)
			h.Reset()
			for _, l := range list {
				h.Add(int64(l))
			}
			want := h.Best(int64(own))

			c.AddAll(list)
			bulk := c.BestAndReset(own)
			for _, l := range list {
				c.Add(l)
			}
			each := c.BestAndReset(own)
			half := len(list) / 2
			second := make([]int32, 0, len(list)-half)
			for i := half; i < len(list); i++ {
				second = append(second, int32(i))
			}
			c.AddAll(list[:half])
			c.AddOf(list, second)
			mixed := c.BestAndReset(own)
			if int64(bulk) != want || int64(each) != want || int64(mixed) != want {
				t.Fatalf("domain %d, list %v: AddAll %d, Add %d, AddAll+AddOf %d; Histogram %d", n, list, bulk, each, mixed, want)
			}
			if c.Len() != 0 {
				t.Fatalf("domain %d, list %v: %d labels still touched after BestAndReset", n, list, c.Len())
			}
		}
		for l, k := range c.cnt {
			if k != 0 {
				t.Fatalf("domain %d: label %d still counts %d after the last BestAndReset", n, l, k)
			}
		}
		countAll := func() {
			for _, list := range lists {
				c.AddAll(list)
				c.BestAndReset(0)
			}
		}
		countAll() // the touched list grows to the longest list
		if allocs := testing.AllocsPerRun(2, countAll); allocs != 0 {
			t.Fatalf("domain %d: a warm bulk count allocated %.0f objects, want 0", n, allocs)
		}
	})
}
