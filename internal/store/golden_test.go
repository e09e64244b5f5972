package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// parentFormatsDigest is the SHA-256 over the WAL file and every device
// data/checksum file that the commit before the single-copy write path
// (b6b68ce) produced for the scenario below. The write path was rebuilt
// around it; the bytes it leaves on disk must not have moved.
const parentFormatsDigest = "0b411548613f1272949eea14af2df316054652d9d23add8b1aab75333d3767a3"

// TestOnDiskFormatsMatchParent writes a fixed object sequence through the
// WAL onto a file-backed store and checks every file it leaves — wal.log,
// dev_NN.data, dev_NN.crc — against the digest of what the parent commit
// wrote for the same sequence, so either side reads the other's files.
func TestOnDiskFormatsMatchParent(t *testing.T) {
	dir := t.TempDir()
	s, _ := openFileStore(t, dir)
	logPath := filepath.Join(dir, "wal.log")
	w := NewWAL(s, WALConfig{LogPath: logPath})
	rng := rand.New(rand.NewSource(22))
	for _, size := range []int{1, 63, 64, 700, s.stripeBytes(), 2*s.stripeBytes() + 65, 5} {
		obj := make([]byte, size)
		rng.Read(obj)
		if _, err := w.Put(context.Background(), obj); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	files := []string{logPath}
	for d := 0; d < fileScheme().N(); d++ {
		files = append(files, devDataFile(dir, d), devCRCFile(dir, d))
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(name), len(raw))
		h.Write(raw)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != parentFormatsDigest {
		t.Fatalf("on-disk bytes differ from the parent commit's: digest %s, want %s", got, parentFormatsDigest)
	}
}

// TestRecoverWALFileAcceptsOrphanPuts: logs written before commits carried
// their own put records logged each put on arrival, so a put record can sit
// ahead of an earlier batch's commit record and the file can end in puts no
// commit ever covered. Such a file — built here byte by byte from the record
// format, not through the WAL — must still replay.
func TestRecoverWALFileAcceptsOrphanPuts(t *testing.T) {
	put := func(log []byte, data []byte) []byte {
		log = append(log, 'P')
		log = binary.LittleEndian.AppendUint32(log, uint32(len(data)))
		log = append(log, data...)
		return binary.LittleEndian.AppendUint32(log, crc32.Checksum(data, castagnoli))
	}
	commit := func(log []byte, count int, base int64) []byte {
		rec := []byte{'C'}
		rec = binary.LittleEndian.AppendUint32(rec, uint32(count))
		rec = binary.LittleEndian.AppendUint64(rec, uint64(base))
		rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec[1:], castagnoli))
		return append(log, rec...)
	}
	dst := MustNew(fileScheme(), testElemSize)
	sb := int64(dst.stripeBytes())
	a, b, c := []byte("first object"), []byte("second, logged while the first committed"), []byte("never committed")
	var log []byte
	log = put(log, a)
	log = put(log, b) // arrived during a's commit: logged ahead of it
	log = commit(log, 1, 0)
	log = commit(log, 1, sb)
	log = put(log, c) // orphan: the crash came before its commit

	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	extents, dropped, err := RecoverWALFile(path, dst)
	if err != nil {
		t.Fatalf("RecoverWALFile: %v", err)
	}
	want := []Extent{{Off: 0, Size: len(a)}, {Off: sb, Size: len(b)}}
	if len(extents) != 2 || extents[0] != want[0] || extents[1] != want[1] || dropped != 1 {
		t.Fatalf("extents %+v dropped %d; want %+v and 1", extents, dropped, want)
	}
	for i, obj := range [][]byte{a, b} {
		res, err := dst.ReadAt(extents[i].Off, extents[i].Size)
		if err != nil || string(res.Data) != string(obj) {
			t.Fatalf("object %d after replay: %q (err %v)", i, res.Data, err)
		}
	}
}
