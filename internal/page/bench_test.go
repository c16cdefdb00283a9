package page

import (
	"math/rand"
	"testing"
)

func BenchmarkInsert(b *testing.B) {
	data := make([]byte, 100)
	p := New(DefaultSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Insert(data); err == ErrPageFull {
			p = New(DefaultSize)
			p.Insert(data)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	p := New(DefaultSize)
	var slots []uint16
	for {
		s, err := p.Insert(make([]byte, 100))
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Get(slots[i%len(slots)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateSameSize(b *testing.B) {
	p := New(DefaultSize)
	s, _ := p.Insert(make([]byte, 100))
	data := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Update(s, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := New(DefaultSize)
	var slots []uint16
	for {
		s, err := p.Insert(make([]byte, 64))
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	for _, s := range slots {
		if rng.Intn(2) == 0 {
			p.Delete(s)
		}
	}
	buf := append([]byte(nil), p.Bytes()...)
	q := Wrap(make([]byte, len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(q.Bytes(), buf)
		q.Compact()
	}
}
