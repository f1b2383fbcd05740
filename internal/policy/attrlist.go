package policy

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"p2pdrm/internal/attr"
)

// AttrKey identifies one unique channel attribute (name, value) pair in
// the Channel Attribute List (§IV-A).
type AttrKey struct {
	Name  string
	Value attr.Value
}

// ChannelAttrList is the Channel Policy Manager's second list: all unique
// attributes collated from all channels, each with its last-update time.
// The User Manager stamps user-attribute utimes from it so clients notice
// channel-lineup changes (§IV-B).
type ChannelAttrList map[AttrKey]time.Time

// BuildAttrList collates the unique attributes of all channels, keeping
// the most recent utime per (name, value).
func BuildAttrList(channels []*Channel) ChannelAttrList {
	out := make(ChannelAttrList)
	for _, c := range channels {
		for _, a := range c.Attrs {
			k := AttrKey{Name: a.Name, Value: a.Value}
			if cur, ok := out[k]; !ok || a.UTime.After(cur) {
				out[k] = a.UTime
			}
		}
	}
	return out
}

// UTimeFor returns the most recent utime among entries with the given
// attribute name (zero if none). User attributes are stamped per-name:
// a change to any "Region" value bumps every user's Region utime, which
// is what prompts the client to refetch the Channel List.
func (l ChannelAttrList) UTimeFor(name string) time.Time {
	var latest time.Time
	for k, ut := range l {
		if k.Name == name && ut.After(latest) {
			latest = ut
		}
	}
	return latest
}

// Encode serializes the list deterministically (sorted by key).
func (l ChannelAttrList) Encode() []byte {
	keys := make([]AttrKey, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Value < keys[j].Value
	})
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		buf = appendString(buf, k.Name)
		buf = appendString(buf, string(k.Value))
		ut := l[k]
		if ut.IsZero() {
			buf = binary.BigEndian.AppendUint64(buf, 0)
		} else {
			buf = binary.BigEndian.AppendUint64(buf, uint64(ut.UnixNano()))
		}
	}
	return buf
}

// DecodeAttrList parses an Encode output.
func DecodeAttrList(b []byte) (ChannelAttrList, error) {
	if len(b) < 4 {
		return nil, errTruncated
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if n > maxChannels {
		return nil, fmt.Errorf("policy: attr list length %d exceeds limit", n)
	}
	out := make(ChannelAttrList, n)
	for i := uint32(0); i < n; i++ {
		var name, val string
		var err error
		if name, b, err = decodeString(b); err != nil {
			return nil, err
		}
		if val, b, err = decodeString(b); err != nil {
			return nil, err
		}
		if len(b) < 8 {
			return nil, errTruncated
		}
		v := binary.BigEndian.Uint64(b)
		b = b[8:]
		var ut time.Time
		if v != 0 {
			ut = time.Unix(0, int64(v)).UTC()
		}
		out[AttrKey{Name: name, Value: attr.Value(val)}] = ut
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("policy: %d trailing bytes in attr list", len(b))
	}
	return out, nil
}
