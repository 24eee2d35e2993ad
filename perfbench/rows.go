package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
)

// scanRows walks a campaign results document — any valid JSON encoding of
// it, indented or compact — and digests the "result" of every element of
// its top-level "rows" array. It is a single pass over the bytes: decoding
// a 700 KB results body with encoding/json and re-compacting every result
// costs the client more CPU than the server spends producing it, which on
// a small host would measure the benchmark instead of the server.
//
// Each result is re-emitted without insignificant whitespace, which is
// exactly json.Marshal's encoding of the same value; norm digests those
// bytes with every "wall_ns" number replaced by 0, and wall keeps the
// replaced numbers, so norm and wall together pin every byte.
func scanRows(doc []byte, buf []byte) ([]rowDigests, []byte, error) {
	s := &scanner{b: doc, out: buf[:0]}
	var rows []rowDigests
	err := s.object(func(key []byte) error {
		if string(key) != "rows" {
			return s.skip()
		}
		return s.array(func() error {
			var row rowDigests
			s.out = s.out[:0]
			s.walls = s.walls[:0]
			haveResult := false
			err := s.object(func(key []byte) error {
				switch string(key) {
				case "app":
					v, err := s.text()
					row.key.app = v
					return err
				case "scheduler":
					v, err := s.text()
					row.key.sched = v
					return err
				case "trace_seed":
					v, err := s.number()
					if err != nil {
						return err
					}
					row.key.seed, err = strconv.ParseInt(string(v), 10, 64)
					return err
				case "result":
					haveResult = true
					return s.emitValue()
				}
				return s.skip()
			})
			if err != nil {
				return err
			}
			if !haveResult {
				return fmt.Errorf("row %s has no result", row.key)
			}
			h := sha256.New()
			prev := 0
			for _, w := range s.walls {
				h.Write(s.out[prev:w[0]])
				h.Write([]byte("0"))
				row.wall += string(s.out[w[0]:w[1]]) + ","
				prev = w[1]
			}
			h.Write(s.out[prev:])
			copy(row.norm[:], h.Sum(nil))
			rows = append(rows, row)
			return nil
		})
	})
	if err == nil {
		s.ws()
		if s.i != len(s.b) {
			err = s.errorf("trailing data")
		}
	}
	return rows, s.out, err
}

// scanner is a minimal JSON reader over one document. emitValue copies a
// value to out without whitespace and records where each "wall_ns" number
// landed in walls.
type scanner struct {
	b     []byte
	i     int
	out   []byte
	walls [][2]int
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("results JSON at byte %d: %s", s.i, fmt.Sprintf(format, args...))
}

// ws skips whitespace. Outside strings, valid JSON has no byte at or below
// ' ' other than whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) && s.b[s.i] <= ' ' {
		s.i++
	}
}

func (s *scanner) expect(c byte) error {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != c {
		return s.errorf("want %q", c)
	}
	s.i++
	return nil
}

// str reads a string and returns its raw bytes between the quotes.
func (s *scanner) str() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.i
	for {
		j := bytes.IndexByte(s.b[s.i:], '"')
		if j < 0 {
			return nil, s.errorf("unterminated string")
		}
		s.i += j + 1
		// The quote ends the string unless an odd run of backslashes
		// escapes it.
		k := s.i - 2
		for k >= start && s.b[k] == '\\' {
			k--
		}
		if (s.i-2-k)%2 == 0 {
			return s.b[start : s.i-1], nil
		}
	}
}

// text reads a string and decodes its escapes.
func (s *scanner) text() (string, error) {
	start := s.i
	raw, err := s.str()
	if err != nil || !bytes.ContainsRune(raw, '\\') {
		return string(raw), err
	}
	var v string
	if err := json.Unmarshal(bytes.TrimSpace(s.b[start:s.i]), &v); err != nil {
		return "", s.errorf("string: %v", err)
	}
	return v, nil
}

// number reads a number, literal (true, false, null) or other bare token.
func (s *scanner) number() ([]byte, error) {
	s.ws()
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c <= ' ' || c == ',' || c == '}' || c == ']' {
			break
		}
		s.i++
	}
	if s.i == start {
		return nil, s.errorf("want a value")
	}
	return s.b[start:s.i], nil
}

// object reads an object, calling member for each key with the reader
// positioned at the value, which member must consume.
func (s *scanner) object(member func(key []byte) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		s.ws()
		if s.i >= len(s.b) {
			return s.errorf("unterminated object")
		}
		s.i++
		switch s.b[s.i-1] {
		case ',':
		case '}':
			return nil
		default:
			return s.errorf("want , or }")
		}
	}
}

// array reads an array, calling elem with the reader at each element.
func (s *scanner) array(elem func() error) error {
	if err := s.expect('['); err != nil {
		return err
	}
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == ']' {
		s.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		s.ws()
		if s.i >= len(s.b) {
			return s.errorf("unterminated array")
		}
		s.i++
		switch s.b[s.i-1] {
		case ',':
		case ']':
			return nil
		default:
			return s.errorf("want , or ]")
		}
	}
}

// skip consumes one value.
func (s *scanner) skip() error {
	mark, walls := len(s.out), len(s.walls)
	err := s.emitValue()
	s.out, s.walls = s.out[:mark], s.walls[:walls]
	return err
}

// emitValue consumes one value and appends it to out without whitespace.
func (s *scanner) emitValue() error {
	s.ws()
	if s.i >= len(s.b) {
		return s.errorf("want a value")
	}
	switch s.b[s.i] {
	case '{':
		s.out = append(s.out, '{')
		first := true
		err := s.object(func(key []byte) error {
			if !first {
				s.out = append(s.out, ',')
			}
			first = false
			s.out = append(s.out, '"')
			s.out = append(s.out, key...)
			s.out = append(s.out, '"', ':')
			if string(key) == "wall_ns" {
				start := len(s.out)
				if err := s.emitValue(); err != nil {
					return err
				}
				s.walls = append(s.walls, [2]int{start, len(s.out)})
				return nil
			}
			return s.emitValue()
		})
		s.out = append(s.out, '}')
		return err
	case '[':
		s.out = append(s.out, '[')
		first := true
		err := s.array(func() error {
			if !first {
				s.out = append(s.out, ',')
			}
			first = false
			return s.emitValue()
		})
		s.out = append(s.out, ']')
		return err
	case '"':
		v, err := s.str()
		s.out = append(s.out, '"')
		s.out = append(s.out, v...)
		s.out = append(s.out, '"')
		return err
	default:
		v, err := s.number()
		s.out = append(s.out, v...)
		return err
	}
}
