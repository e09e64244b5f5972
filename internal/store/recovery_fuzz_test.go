package store

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
)

// FuzzDiskRecovery crash-tests the file backend the way FuzzWALReplay
// crash-tests the log: fill a file-backed store — whole stripes, then a
// padded last stripe of 1..DataPerStripe elements, whose zero cells are
// holes in the data files — then model a crash by
// truncating every device's data and checksum files to arbitrary lengths no
// shorter than a chosen barrier stripe T (the last fsync barrier the crash
// provably survived — writes before a barrier are durable, writes after may
// be torn to any extent, including unevenly across devices and between a
// cell and its sidecar checksum). Reopening must always succeed, keep at
// least the T durable stripes, serve a byte-identical prefix of the original
// data (its padding reading as zeros), and leave a store a second reopen
// finds nothing wrong with.
func FuzzDiskRecovery(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(0))
	f.Add(int64(2), uint8(1), uint16(9999))
	f.Add(int64(3), uint8(6), uint16(31000))
	f.Add(int64(4), uint8(3), uint16(777))
	f.Add(int64(5), uint8(5), uint16(54321))
	f.Fuzz(func(t *testing.T, seed int64, nStripes uint8, cutSeed uint16) {
		stripes := 1 + int(nStripes%6)
		sch := fileScheme()
		stripeBytes := sch.DataPerStripe() * testElemSize
		rows := rowsOf(sch)
		dir := t.TempDir()

		st, _, err := OpenFileBacked(sch, testElemSize, FileConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		// data is the sealed extent as reads serve it: the last stripe's
		// user bytes end at a random element, partly filled, and zeros
		// follow.
		data := make([]byte, stripes*stripeBytes)
		rng := rand.New(rand.NewSource(seed))
		rng.Read(data)
		tail := (stripes-1)*stripeBytes + rng.Intn(sch.DataPerStripe())*testElemSize + 1 + rng.Intn(testElemSize)
		clear(data[tail:])
		if err := st.Append(data[:tail]); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		// Killed: Close never runs, so the manifest on disk is the one open
		// wrote, recording no stripe durable.
		if err := st.closeBackends(); err != nil {
			t.Fatal(err)
		}

		// Crash: everything up to barrier stripe T is durable; each device's
		// files independently keep an arbitrary amount of the rest.
		rng = rand.New(rand.NewSource(seed ^ int64(cutSeed)<<17))
		barrier := rng.Intn(stripes + 1)
		for d := 0; d < sch.N(); d++ {
			durableData := int64(barrier * rows * testElemSize)
			fullData := int64(stripes * rows * testElemSize)
			if err := os.Truncate(devDataFile(dir, d),
				durableData+rng.Int63n(fullData-durableData+1)); err != nil {
				t.Fatal(err)
			}
			durableCRC := int64(barrier * rows * 4)
			fullCRC := int64(stripes * rows * 4)
			if err := os.Truncate(devCRCFile(dir, d),
				durableCRC+rng.Int63n(fullCRC-durableCRC+1)); err != nil {
				t.Fatal(err)
			}
		}

		st2, rep, err := OpenFileBacked(sch, testElemSize, FileConfig{Dir: dir})
		if err != nil {
			t.Fatalf("recovery failed (barrier %d of %d): %v", barrier, stripes, err)
		}
		if rep.Stripes < barrier {
			t.Fatalf("recovered %d stripes, barrier guaranteed %d", rep.Stripes, barrier)
		}
		if n := int(st2.Len()); n > 0 {
			res, err := st2.ReadAt(0, n)
			if err != nil {
				t.Fatalf("read recovered extent: %v", err)
			}
			if !bytes.Equal(res.Data, data[:n]) {
				t.Fatalf("recovered extent diverges from written data (barrier %d, kept %d stripes)",
					barrier, rep.Stripes)
			}
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}

		st3, rep3, err := OpenFileBacked(sch, testElemSize, FileConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if rep3.HealedCells != 0 || rep3.TruncatedStripes != 0 || rep3.ReencodedStripes != 0 {
			t.Fatalf("recovery not idempotent: second open found %+v", rep3)
		}
		st3.Close()
	})
}
