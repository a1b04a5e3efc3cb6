package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// layers are the CPU-share buckets: the repro/internal packages that do
// the simulator's work, "runtime" for samples with no such frame, and
// "other" for the remaining internal packages (ttcp, core, kern's
// neighbours, the fault injector, ...).
var layers = []string{"sim", "kern", "mem", "mbuf", "checksum", "cab", "cabdrv", "hippi",
	"fabric", "tcpip", "socket", "load", "obs", "runtime", "other"}

const internalPrefix = "repro/internal/"

// layerOf maps a function name to its layer, or "" outside repro/internal.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// addProfile adds the samples of a gzip-compressed pprof CPU profile to
// into, each sample under the layer of its innermost repro/internal
// frame (inlined frames included), or "runtime" when it has none.
func addProfile(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		sampleCnt []int64
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(v, b, func(x uint64) { locs = append(locs, x) })
				case 2:
					return pbUints(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without values")
			}
			samples = append(samples, locs)
			sampleCnt = append(sampleCnt, vals[0])
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, locs := range samples {
		layer := "runtime"
	find:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return errors.New("function name out of range")
				}
				if l := layerOf(strs[idx]); l != "" {
					layer = l
					break find
				}
			}
		}
		into[layer] += sampleCnt[i]
	}
	return nil
}

// pbFields walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the bytes.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		var (
			v uint64
			b []byte
		)
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short protobuf fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short protobuf fixed32")
			}
			msg = msg[4:]
		default:
			return errors.New("unknown protobuf wire type")
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated integer field in either encoding: a single
// varint (v, b == nil) or a packed run (b).
func pbUints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
