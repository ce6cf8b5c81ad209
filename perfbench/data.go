package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

// Keys and values the benchmark feeds the store. Every key starts with
// two bytes of its own hash: partition.SplitUniform cuts the keyspace on
// leading bytes, so ycsb.Key-style keys ("user…") would all land in one
// tablet and the cluster figures would measure a single server.

const (
	mainTable    = "usertable"
	accountTable = "accounts"
	group        = "f0"
	// valueSize is the size of every usertable value, in bytes.
	valueSize = 1024
	// fillerSize is the pool values slice their filler bytes from.
	fillerSize = 1 << 16
	// initialBalance is every account's balance after preload.
	initialBalance = 1000
)

// mix64 is the splitmix64 finalizer: every input bit moves every output
// bit, so consecutive ids get unrelated prefixes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// hashPrefixed prepends two bytes of the hash of id to body.
func hashPrefixed(id uint64, body string) []byte {
	h := mix64(id)
	out := make([]byte, 2, 2+len(body))
	out[0], out[1] = byte(h>>56), byte(h>>48)
	return append(out, body...)
}

// rowKey is the usertable key of row i.
func rowKey(i int64) []byte { return hashPrefixed(uint64(i), fmt.Sprintf("r%010d", i)) }

// accountKey is the accounts key of account i.
func accountKey(i int64) []byte { return hashPrefixed(^uint64(i), fmt.Sprintf("a%06d", i)) }

// rowNum is the numeric first field of every value of row i; the
// scan-mix range aggregate sums it, so a range's SUM is fixed by which
// rows it holds, whatever versions they are at.
func rowNum(i int64) int64 { return i % 1000 }

// values builds and verifies usertable values. A value reads
// "<rowNum>,<row>,<version>," followed by filler bytes chosen by (row,
// version), padded to valueSize, so a reader can check that a value is
// exactly the one some writer wrote for that row.
type values struct {
	filler []byte
}

func newValues(seed int64) *values {
	f := make([]byte, fillerSize)
	rng := rand.New(rand.NewSource(seed))
	for i := range f {
		f[i] = 'a' + byte(rng.Intn(26))
	}
	return &values{filler: f}
}

func (v *values) fillerAt(row, version int64, n int) []byte {
	off := (row*31 + version*17) % int64(len(v.filler)-valueSize)
	return v.filler[off : off+int64(n)]
}

// value returns version of row i's value.
func (v *values) value(row, version int64) []byte {
	out := make([]byte, 0, valueSize)
	out = strconv.AppendInt(out, rowNum(row), 10)
	out = append(out, ',')
	out = strconv.AppendInt(out, row, 10)
	out = append(out, ',')
	out = strconv.AppendInt(out, version, 10)
	out = append(out, ',')
	return append(out, v.fillerAt(row, version, valueSize-len(out))...)
}

// check verifies that val is a well-formed value of row and returns the
// version it carries.
func (v *values) check(row int64, val []byte) (int64, error) {
	if len(val) != valueSize {
		return 0, fmt.Errorf("row %d: value is %d bytes, want %d", row, len(val), valueSize)
	}
	fields := bytes.SplitN(val, []byte{','}, 4)
	if len(fields) != 4 {
		return 0, fmt.Errorf("row %d: malformed value header", row)
	}
	num, err1 := strconv.ParseInt(string(fields[0]), 10, 64)
	got, err2 := strconv.ParseInt(string(fields[1]), 10, 64)
	version, err3 := strconv.ParseInt(string(fields[2]), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || num != rowNum(row) || got != row {
		return 0, fmt.Errorf("row %d: value header %q belongs to another row", row, val[:len(val)-len(fields[3])])
	}
	if !bytes.Equal(fields[3], v.fillerAt(row, version, len(fields[3]))) {
		return 0, fmt.Errorf("row %d: value body of version %d is corrupt", row, version)
	}
	return version, nil
}

// leadingNum parses the numeric first field of a usertable value or a
// whole accounts value: the query Extract for SUM.
func leadingNum(val []byte) (float64, bool) {
	if i := bytes.IndexByte(val, ','); i >= 0 {
		val = val[:i]
	}
	n, err := strconv.ParseInt(string(val), 10, 64)
	return float64(n), err == nil
}
