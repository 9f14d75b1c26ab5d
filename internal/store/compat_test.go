package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apspark/internal/matrix"
)

// writeV1Store synthesizes a version-1 store file — 16-byte index entries,
// no checksums — exactly as the first format revision wrote it.
func writeV1Store(t *testing.T, path string, m *matrix.Block, blockSize int) {
	t.Helper()
	n := m.R
	if blockSize > n {
		blockSize = n
	}
	q := (n + blockSize - 1) / blockSize
	hdr := make([]byte, 0, fileHdrLen+q*q*16)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, 1)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(q))
	off := int64(fileHdrLen + q*q*16)
	var tiles []byte
	for bi := 0; bi < q; bi++ {
		h := tileEdge(n, blockSize, bi)
		for bj := 0; bj < q; bj++ {
			w := tileEdge(n, blockSize, bj)
			tile := matrix.New(h, w)
			if err := m.ExtractInto(tile, bi*blockSize, bj*blockSize); err != nil {
				t.Fatal(err)
			}
			buf := tile.AppendMarshal(nil)
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(buf)))
			tiles = append(tiles, buf...)
			off += int64(len(buf))
		}
	}
	if err := os.WriteFile(path, append(hdr, tiles...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV1StoreRefused: version 1 carries no checksums, so nothing it holds
// could pass the verify-once gate; nothing has written it since v2, and
// Open now refuses it as an unsupported version rather than malformed.
func TestV1StoreRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.apsp")
	writeV1Store(t, path, testMatrix(25, 31), 8)
	s, err := OpenWithOptions(path, Options{TileCacheBytes: 1 << 20})
	if err == nil {
		s.Close()
		t.Fatal("version-1 store opened")
	}
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// writeV2Store synthesizes a version-2 store file — 24-byte index
// entries carrying CRC32-C over raw tile bytes, no codec byte — exactly
// as the pre-codec format revision wrote it.
func writeV2Store(t *testing.T, path string, m *matrix.Block, blockSize int) {
	t.Helper()
	n := m.R
	q := (n + blockSize - 1) / blockSize
	hdr := make([]byte, 0, fileHdrLen+q*q*idxEntryLen)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, 2)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(n))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(q))
	off := int64(fileHdrLen + q*q*idxEntryLen)
	var tiles []byte
	for bi := 0; bi < q; bi++ {
		for bj := 0; bj < q; bj++ {
			tile := matrix.New(tileEdge(n, blockSize, bi), tileEdge(n, blockSize, bj))
			if err := m.ExtractInto(tile, bi*blockSize, bj*blockSize); err != nil {
				t.Fatal(err)
			}
			buf := tile.AppendMarshal(nil)
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(buf)))
			hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(buf, castagnoli))
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)
			tiles = append(tiles, buf...)
			off += int64(len(buf))
		}
	}
	if err := os.WriteFile(path, append(hdr, tiles...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireRefused fails unless err is ErrVersion and says what it refused.
func requireRefused(t *testing.T, what string, err error, names string) {
	t.Helper()
	if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), names) {
		t.Fatalf("%s: err = %v, want ErrVersion naming %q", what, err, names)
	}
}

// TestV2StoreRefused: this build reads only the version it writes. A v2
// store (checksummed, no codec byte; nothing has written one since v3)
// fails Open with an error that names its version.
func TestV2StoreRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.apsp")
	writeV2Store(t, path, testMatrix(25, 31), 8)
	s, err := OpenWithOptions(path, Options{})
	if err == nil {
		s.Close()
	}
	requireRefused(t, "v2 store", err, "version 2")
}

// ivarintStore writes an ivarint store of intMatrix(n) with tile edge b
// and returns its path; every tile of it is ivarint-coded.
func ivarintStore(t *testing.T, n, b int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ivarint.apsp")
	if err := WriteWithCodec(path, intMatrix(n, 23), b, CodecIVarint); err != nil {
		t.Fatal(err)
	}
	return path
}

// Codec byte 1 named the ivarint layout before restart groups. Nothing
// has written it since, and this build refuses it, naming the byte,
// wherever a codec byte comes in: Open, checkpoint resume, WriteRawPanel.

func TestCodecByteOneRefusedAtOpen(t *testing.T) {
	path := ivarintStore(t, 32, 16)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[fileHdrLen+idxEntryLen+20] = 1 // tile (0,1)'s codec byte
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWithOptions(path, Options{})
	if err == nil {
		s.Close()
	}
	requireRefused(t, "byte 1 at Open", err, "codec byte 1")
}

func TestCodecByteOneRefusedAtResume(t *testing.T) {
	n, b := 48, 16
	m := intMatrix(n, 51)
	path := filepath.Join(t.TempDir(), "dist.apsp")
	ivarint := PanelWriterOptions{Checkpoint: true, Codec: CodecIVarint}
	pw, err := NewPanelWriterWithOptions(path, n, b, ivarint)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePanel(panelOf(t, m, b, 0)); err != nil {
		t.Fatal(err)
	}
	pw.Abort()
	// Tile (0,1)'s index entry in the partial: codec byte at 20.
	partial := path + ".partial"
	buf, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	codec := fileHdrLen + idxEntryLen + 20
	if Codec(buf[codec]) != CodecIVarint {
		t.Fatalf("checkpointed tile (0,1) has codec %d, want ivarint", buf[codec])
	}
	buf[codec] = 1 // what the build before restart groups recorded
	if err := os.WriteFile(partial, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	ivarint.Resume = true
	_, err = NewPanelWriterWithOptions(path, n, b, ivarint)
	requireRefused(t, "byte 1 at resume", err, "codec byte 1")
	if kept, err := os.ReadFile(partial); err != nil || !bytes.Equal(kept, buf) {
		t.Fatalf("a refused resume changed the checkpoint (%v)", err)
	}
}

func TestCodecByteOneRefusedAtWriteRawPanel(t *testing.T) {
	n, b := 32, 16
	s, err := OpenWithOptions(ivarintStore(t, n, b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	raw, metas, err := s.ReadPanelRaw(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	metas[1].Codec = 1
	w, err := NewPanelWriterWithOptions(filepath.Join(t.TempDir(), "dst.apsp"), n, b, PanelWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	requireRefused(t, "byte 1 at WriteRawPanel", w.WriteRawPanel(raw, metas), "codec byte 1")
}

// TestOpenErrorsAreTyped maps each malformed-store class to the sentinel
// an operator dispatches on: not-a-store, unsupported version, malformed.
func TestOpenErrorsAreTyped(t *testing.T) {
	good, err := os.ReadFile(writeTestStore(t, testMatrix(12, 4), 4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		want   error
		mutate func([]byte) []byte
	}{
		{"bad-magic", ErrNotAStore, func(b []byte) []byte { b[0] = 'X'; return b }},
		{"empty-file", ErrMalformed, func(b []byte) []byte { return nil }},
		{"truncated-header", ErrMalformed, func(b []byte) []byte { return b[:10] }},
		{"future-version", ErrVersion, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 99)
			return b
		}},
		{"zero-version", ErrVersion, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 0)
			return b
		}},
		{"zero-n", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], 0)
			return b
		}},
		{"b-gt-n", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], 1000)
			return b
		}},
		{"q-mismatch", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:24], 7)
			return b
		}},
		{"truncated-index", ErrMalformed, func(b []byte) []byte { return b[:30] }},
		{"truncated-body", ErrMalformed, func(b []byte) []byte { return b[:len(b)-5] }},
		{"index-off-out-of-file", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:32], 1<<40)
			return b
		}},
		{"index-len-mismatch", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:40], 12345)
			return b
		}},
		{"q-overflow-forgery", ErrMalformed, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], 0xFFFFFFFF)
			binary.LittleEndian.PutUint32(b[16:20], 1)
			binary.LittleEndian.PutUint32(b[20:24], 0xFFFFFFFF)
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), good...))
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenWithOptions(path, Options{TileCacheBytes: 1 << 20})
			if err == nil {
				s.Close()
				t.Fatal("malformed store opened cleanly")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// FuzzOpen feeds arbitrary bytes (seeded with a valid store and its
// truncations) through Open: it must reject or accept, never panic. An
// accepted store must survive a probe query without panicking either.
func FuzzOpen(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.apsp")
	if err := WriteWithCodec(seed, testMatrix(9, 2), 4, CodecRaw); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, cut := range []int{0, 7, 8, 12, 23, 24, 40, len(good) / 2, len(good) - 1} {
		if cut <= len(good) {
			f.Add(good[:cut])
		}
	}
	flip := append([]byte(nil), good...)
	flip[9] ^= 0xFF
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.apsp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := OpenWithOptions(path, Options{TileCacheBytes: 1 << 16})
		if err != nil {
			return
		}
		defer s.Close()
		// Whatever parsed must also be probeable without panicking.
		_, _ = s.Dist(context.Background(), 0, 0)
		_, _ = s.Row(context.Background(), s.N()-1)
	})
}
