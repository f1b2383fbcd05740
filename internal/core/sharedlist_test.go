package core

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"p2pdrm/internal/client"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/policy"
)

// heldChannels returns the Channel List a client or Channel Manager
// backend holds: its unexported channels map, read through reflect so the
// check needs no accessor in either package.
func heldChannels(t *testing.T, holder any) map[string]*policy.Channel {
	t.Helper()
	f := reflect.ValueOf(holder).Elem().FieldByName("channels")
	if !f.IsValid() || f.Type() != reflect.TypeOf(map[string]*policy.Channel(nil)) {
		t.Fatalf("%T has no channels map", holder)
	}
	return *(*map[string]*policy.Channel)(unsafe.Pointer(f.UnsafeAddr()))
}

// inPartition is a Channel List as a Channel Manager of part keeps it.
func inPartition(chs map[string]*policy.Channel, part string) map[string]*policy.Channel {
	out := map[string]*policy.Channel{}
	for id, c := range chs {
		if c.Partition == part {
			out[id] = c
		}
	}
	return out
}

// TestSharedChannelListReadOnly: every client and Channel Manager backend
// of a deployment holds the one decode of each Channel List version
// (policy.Lists), so none of them may write to it. Logins, switches and
// renewals run on the shared lists across a DeployChannel feed update;
// at the end every list a client or backend holds is deep-compared with
// a fresh decode of the bytes it came from, made by an observer client
// that shares nothing.
func TestSharedChannelListReadOnly(t *testing.T) {
	st := newStack(t, nil)
	st.deployDefault(t)
	viewers := make([]*client.Client, 4)
	for i := range viewers {
		viewers[i] = st.viewer(t, string(rune('a'+i))+"@shared", geo.Addr(100, 10, i+1), nil)
	}
	if _, err := st.sys.RegisterUser("observer@shared", "pw"); err != nil {
		t.Fatal(err)
	}
	observer, err := st.sys.NewClient("observer@shared", "pw", geo.Addr(100, 20, 1), func(cfg *client.Config) {
		cfg.Lists = nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var fresh []map[string]*policy.Channel // one fresh decode per version
	st.sys.Sched.Go(func() {
		if err := observer.Login(); err != nil {
			t.Errorf("observer login: %v", err)
			return
		}
		fresh = append(fresh, heldChannels(t, observer))
		for _, c := range viewers[:2] {
			if err := c.Login(); err != nil {
				t.Errorf("login: %v", err)
				return
			}
			if err := c.Watch("news"); err != nil {
				t.Errorf("watch: %v", err)
				return
			}
		}
		st.sys.Sched.Sleep(6 * time.Minute) // past a Channel Ticket renewal
		if err := st.sys.DeployChannel(FreeToView("movies", "Movies", "100")); err != nil {
			t.Errorf("deploy: %v", err)
			return
		}
		st.sys.Sched.Sleep(time.Second) // the feed reaches every backend
		if err := observer.FetchChannelList(nil); err != nil {
			t.Errorf("observer fetch: %v", err)
			return
		}
		fresh = append(fresh, heldChannels(t, observer))
		for _, c := range viewers[2:] {
			if err := c.Login(); err != nil {
				t.Errorf("login: %v", err)
				return
			}
			if err := c.Watch("sports"); err != nil {
				t.Errorf("watch: %v", err)
				return
			}
		}
		if err := viewers[0].FetchChannelList(nil); err != nil {
			t.Errorf("refetch: %v", err)
			return
		}
		if err := viewers[0].Watch("movies"); err != nil {
			t.Errorf("watch movies: %v", err)
		}
	})
	st.sys.Sched.RunUntil(t0.Add(15 * time.Minute))
	st.sys.StopAll()
	if t.Failed() {
		return
	}
	if len(fresh) != 2 || reflect.DeepEqual(fresh[0], fresh[1]) {
		t.Fatalf("want two distinct versions, have %d", len(fresh))
	}

	matches := func(held map[string]*policy.Channel, part string) bool {
		for _, f := range fresh {
			if part != "" {
				f = inPartition(f, part)
			}
			if reflect.DeepEqual(held, f) {
				return true
			}
		}
		return false
	}
	for i, c := range viewers {
		if !matches(heldChannels(t, c), "") {
			t.Errorf("viewer %d holds a Channel List that differs from every fresh decode", i)
		}
	}
	backends := 0
	for _, part := range st.sys.Opts.Partitions {
		for i, m := range st.sys.ChanMgrs(part) {
			backends++
			if !matches(heldChannels(t, m), part) {
				t.Errorf("channel manager %s/%d holds a Channel List that differs from every fresh decode", part, i)
			}
		}
	}
	if backends == 0 {
		t.Fatal("no Channel Manager backend checked")
	}

	// The lists really are shared: the viewers on the second version hold
	// one map, and a backend holds the same channels.
	late := heldChannels(t, viewers[3])
	for _, c := range []*client.Client{viewers[0], viewers[2]} {
		if reflect.ValueOf(heldChannels(t, c)).Pointer() != reflect.ValueOf(late).Pointer() {
			t.Error("viewers fetching one version hold separate decodes")
		}
	}
	news := late["news"]
	if news == nil {
		t.Fatal("no news channel in the second version")
	}
	if heldChannels(t, st.sys.ChanMgrs(news.Partition)[0])["news"] != news {
		t.Error("the Channel Manager and the viewers hold separate decodes of one version")
	}
}
