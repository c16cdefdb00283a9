package segment

import "testing"

// BenchmarkReadPage reads one cached 8 KiB slot into a reused buffer,
// as a buffer-pool fault does: a pread plus the CRC over the slot.
func BenchmarkReadPage(b *testing.B) {
	d, err := Open(b.TempDir(), 8192)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.WritePage(1, 1, pageOf(7, 8192), 1); err != nil {
		b.Fatal(err)
	}
	slot := make([]byte, d.SlotSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.ReadPage(1, 1, slot); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePage writes one 8 KiB page (no fsync), as an eviction
// flush does: encode into the directory's scratch slot plus a pwrite.
func BenchmarkWritePage(b *testing.B) {
	d, err := Open(b.TempDir(), 8192)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	data := pageOf(7, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WritePage(1, 1, data, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
