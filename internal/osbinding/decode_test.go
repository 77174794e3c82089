package osbinding

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/ocl"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/openstack/keystone"
	"cloudmon/internal/openstack/nova"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
)

// typedDecode is the reference for every binding: json.Unmarshal of the
// body into the typed client's response type (skipped for an empty body,
// as the client skips it), then the path's projection of the result.
var typedDecode = map[string]func([]byte) (ocl.Value, error){
	"project.id": func(b []byte) (ocl.Value, error) {
		var out struct {
			Project keystone.Project `json:"project"`
		}
		err := unmarshal(b, &out)
		return ocl.StringVal(out.Project.ID), err
	},
	"project.volumes": func(b []byte) (ocl.Value, error) {
		var out struct {
			Volumes []cinder.Volume `json:"volumes"`
		}
		err := unmarshal(b, &out)
		ids := make([]ocl.Value, len(out.Volumes))
		for i, v := range out.Volumes {
			ids[i] = ocl.StringVal(v.ID)
		}
		return ocl.CollectionVal(ids...), err
	},
	"project.servers": func(b []byte) (ocl.Value, error) {
		var out struct {
			Servers []nova.Server `json:"servers"`
		}
		err := unmarshal(b, &out)
		ids := make([]ocl.Value, len(out.Servers))
		for i, s := range out.Servers {
			ids[i] = ocl.StringVal(s.ID)
		}
		return ocl.CollectionVal(ids...), err
	},
	"quota_sets.volume": func(b []byte) (ocl.Value, error) {
		var out struct {
			QuotaSet cinder.QuotaSet `json:"quota_set"`
		}
		err := unmarshal(b, &out)
		return ocl.IntVal(out.QuotaSet.Volumes), err
	},
	"volume.status": func(b []byte) (ocl.Value, error) {
		var out struct {
			Volume cinder.Volume `json:"volume"`
		}
		err := unmarshal(b, &out)
		return ocl.StringVal(out.Volume.Status), err
	},
	"server.status": func(b []byte) (ocl.Value, error) {
		var out struct {
			Server nova.Server `json:"server"`
		}
		err := unmarshal(b, &out)
		return ocl.StringVal(out.Server.Status), err
	},
	"user.id.groups": func(b []byte) (ocl.Value, error) {
		var out struct {
			Token keystone.Token `json:"token"`
		}
		err := unmarshal(b, &out)
		return ocl.StringsVal(out.Token.Roles...), err
	},
}

func unmarshal(b []byte, out any) error {
	if len(b) == 0 {
		return nil
	}
	return json.Unmarshal(b, out)
}

func sortedPaths() []string {
	paths := make([]string, 0, len(bindings))
	for p := range bindings {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// checkBody holds one body to the reference on every binding: a body the
// scanner accepts must decode under json.Unmarshal to an equal value, and
// decode (scanner or fallback) must agree with the reference on every
// body, errors included.
func checkBody(t *testing.T, body []byte) {
	t.Helper()
	for _, path := range sortedPaths() {
		b := bindings[path]
		want, wantErr := typedDecode[path](body)
		if got, ok := b.shape.scan(body); ok {
			if wantErr != nil {
				t.Fatalf("%s: scanner accepted %q, which json.Unmarshal rejects: %v", path, body, wantErr)
			}
			if got.Kind != want.Kind || !got.Equal(want) {
				t.Fatalf("%s: scanner read %v from %q, json.Unmarshal %v", path, got, body, want)
			}
		}
		got, err := b.shape.decode(body)
		switch {
		case (err != nil) != (wantErr != nil):
			t.Fatalf("%s: decode(%q) error %v, json.Unmarshal error %v", path, body, err, wantErr)
		case err != nil:
			if want := "osclient: decode response: " + wantErr.Error(); err.Error() != want {
				t.Fatalf("%s: decode(%q) error %q, want %q", path, body, err, want)
			}
		case got.Kind != want.Kind || !got.Equal(want):
			t.Fatalf("%s: decode(%q) = %v, json.Unmarshal %v", path, body, got, want)
		}
	}
}

// cloudBodies returns every body the simulated cloud answers the seven
// state paths' GETs with, keyed by a name: listings empty and of 40
// volumes, tokens with and without roles, Nova servers with and without
// attached volumes.
func cloudBodies(t testing.TB) map[string][]byte {
	t.Helper()
	cloud := openstack.New(openstack.Config{})
	res := cloud.ApplySeed(openstack.Seed{
		ProjectName: "p",
		Quota:       cinder.QuotaSet{Volumes: 1000000, Gigabytes: 100},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
			{Name: "bob", Password: "pw", Group: paper.GroupBusinessAnalyst},
			{Name: "eve", Password: "pw", Group: "no-role"},
		},
	})
	pid := res.ProjectID
	c := osclient.New("http://cloud.internal")
	c.HTTPClient = httpkit.HandlerClient(cloud)
	if _, err := c.Authenticate("alice", "pw", pid); err != nil {
		t.Fatal(err)
	}
	get := func(path, header, value string) []byte {
		t.Helper()
		body, err := c.GetRaw(path, header, value)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}
	bodies := map[string][]byte{
		"project":     get("/identity/v3/projects/"+pid, "", ""),
		"quota":       get("/volume/v3/"+pid+"/quota_sets", "", ""),
		"volumes-0":   get("/volume/v3/"+pid+"/volumes", "", ""),
		"servers-0":   get("/compute/v2.1/"+pid+"/servers", "", ""),
		"token-admin": get("/identity/v3/auth/tokens", "X-Subject-Token", c.Token),
	}
	for name, user := range map[string]string{"token-member": "bob", "token-none": "eve"} {
		u := osclient.Client{BaseURL: c.BaseURL, HTTPClient: c.HTTPClient}
		tok, err := u.Authenticate(user, "pw", pid)
		if err != nil {
			t.Fatal(err)
		}
		bodies[name] = get("/identity/v3/auth/tokens", "X-Subject-Token", tok)
	}
	var vols []*cinder.Volume
	for i := 0; i < 40; i++ {
		v, err := cloud.Volumes.Create(pid, fmt.Sprintf("c%d-%d", i%2, i), 1+i%3)
		if err != nil {
			t.Fatal(err)
		}
		vols = append(vols, v)
	}
	bodies["volumes-40"] = get("/volume/v3/"+pid+"/volumes", "", "")
	bodies["volume"] = get("/volume/v3/"+pid+"/volumes/"+vols[0].ID, "", "")
	bare := cloud.Compute.CreateServer(pid, "web")
	bodies["server-bare"] = get("/compute/v2.1/"+pid+"/servers/"+bare.ID, "", "")
	attached := cloud.Compute.CreateServer(pid, "db")
	if err := cloud.Compute.Attach(pid, attached.ID, vols[1].ID); err != nil {
		t.Fatal(err)
	}
	bodies["server-attached"] = get("/compute/v2.1/"+pid+"/servers/"+attached.ID, "", "")
	bodies["volume-in-use"] = get("/volume/v3/"+pid+"/volumes/"+vols[1].ID, "", "")
	bodies["servers-2"] = get("/compute/v2.1/"+pid+"/servers", "", "")
	return bodies
}

// TestScannerAcceptsCloudBodies pins the fast path under the benchmark:
// the scanner accepts every body the simulated cloud answers the five
// Cinder paths with, so none of them reaches json.Unmarshal.
func TestScannerAcceptsCloudBodies(t *testing.T) {
	bodies := cloudBodies(t)
	for path, names := range map[string][]string{
		"project.id":        {"project"},
		"project.volumes":   {"volumes-0", "volumes-40"},
		"quota_sets.volume": {"quota"},
		"volume.status":     {"volume", "volume-in-use"},
		"user.id.groups":    {"token-admin", "token-member"},
		"project.servers":   {"servers-0", "servers-2"},
		"server.status":     {"server-bare", "server-attached"},
	} {
		for _, name := range names {
			body := bodies[name]
			got, ok := bindings[path].shape.scan(body)
			if !ok {
				t.Errorf("%s: the scanner rejects the cloud's %s body %s", path, name, body)
				continue
			}
			want, err := typedDecode[path](body)
			if err != nil || got.Kind != want.Kind || !got.Equal(want) {
				t.Errorf("%s: %s reads %v, json.Unmarshal %v (%v)", path, name, got, want, err)
			}
		}
	}
	if got, _ := bindings["project.volumes"].shape.scan(bodies["volumes-40"]); got.Size() != 40 {
		t.Errorf("40-volume listing reads %d ids", got.Size())
	}
	// A user without roles gets "roles": null, which the scanner leaves
	// to json.Unmarshal: no role at all.
	got, err := bindings["user.id.groups"].shape.decode(bodies["token-none"])
	if err != nil || got.Kind != ocl.KindCollection || got.Size() != 0 {
		t.Errorf("token without roles reads %v, %v; want an empty collection", got, err)
	}
}

// TestScannerRejectsNonCanonical runs bodies that must take the fallback:
// escapes, case-folded and duplicate keys, null on the bound path,
// numbers an int does not take, trailing bytes. Each must still decode
// to exactly what json.Unmarshal reads.
func TestScannerRejectsNonCanonical(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"project.volumes", `{"volumes":[{"id":"a\u0062"}]}`},
		{"project.volumes", `{"Volumes":[{"id":"a"}]}`},
		{"project.volumes", `{"volumes":[{"ID":"a"}]}`},
		{"project.volumes", `{"volumes":[{"id":"a","id":"b"}]}`},
		{"project.volumes", `{"volumes":[{"id":"a"}],"volumes":[]}`},
		{"project.volumes", `{"volumes":null}`},
		{"project.volumes", `{"volumes":[null]}`},
		{"project.volumes", `{"volumes":[{"id":null}]}`},
		{"project.volumes", `{"volumes":[{"id":"a","size":1.0}]}`},
		{"project.volumes", `{"volumes":[{"id":"a","size":"1"}]}`},
		{"project.volumes", `{"volumes":[]} x`},
		{"project.volumes", `{"volumes":[}`},
		{"project.volumes", `{"volumes":[{"i\u0064":"a"}]}`},
		{"project.volumes", `{"volumes":[{"id":"é"}]}`},
		{"project.volumes", `null`},
		{"project.volumes", `[]`},
		{"project.volumes", ``},
		{"quota_sets.volume", `{"quota_set":{"volumes":1e3}}`},
		{"quota_sets.volume", `{"quota_set":{"volumes":99999999999999999999}}`},
		{"quota_sets.volume", `{"quota_set":{"volumes":10,"gigabytes":-1.5}}`},
		{"quota_sets.volume", `{"quota_set":{"volumes":01}}`},
		{"user.id.groups", `{"token":{"roles":["admin"],"expires_at":"not a time"}}`},
		{"user.id.groups", `{"token":{"roles":["admin"],"expires_at":17}}`},
		{"user.id.groups", `{"token":{"roles":null}}`},
		{"user.id.groups", `{"token":{"roles":["ad\nmin"]}}`},
		{"volume.status", `{"volume":{"status":"available"},"VOLUME":{}}`},
		{"volume.status", `{"volume":null}`},
	} {
		if _, ok := bindings[tc.path].shape.scan([]byte(tc.body)); ok {
			t.Errorf("%s: the scanner accepts %s", tc.path, tc.body)
		}
		checkBody(t, []byte(tc.body))
	}
}

// TestScannerSkipsUndeclared checks canonical bodies beyond the cloud's:
// undeclared keys of every JSON type, null where a declared field is
// not on the bound path, escapes outside it, and whitespace.
func TestScannerSkipsUndeclared(t *testing.T) {
	for _, tc := range []struct {
		path, body string
		want       ocl.Value
	}{
		{"project.volumes", " {\n\t\"links\": [{\"rel\": \"next\", \"n\": -1.5e+3}, true, false, null],\r\n" +
			` "volumes": [{"id": "a", "name": "snøw \"x\"", "size": -0, "status": null}, {"name": "no id"}], "count": {}} `,
			ocl.StringsVal("a", "")},
		{"project.volumes", `{"volumes":[]}`, ocl.StringsVal()},
		{"project.volumes", `{}`, ocl.StringsVal()},
		{"quota_sets.volume", `{"quota_set":{"gigabytes":7,"volumes":-12}}`, ocl.IntVal(-12)},
		{"quota_sets.volume", `{"quota_set":{}}`, ocl.IntVal(0)},
		{"volume.status", `{"volume":{"id":"v","status":"in-use","attached_to":null}}`, ocl.StringVal("in-use")},
		{"volume.status", `{"other":{"status":"x"}}`, ocl.StringVal("")},
		{"user.id.groups", `{"token":{"roles":["admin","member"],"groups":null,"expires_at":null}}`,
			ocl.StringsVal("admin", "member")},
		{"server.status", `{"server":{"status":"ACTIVE","volumes":null}}`, ocl.StringVal("ACTIVE")},
	} {
		got, ok := bindings[tc.path].shape.scan([]byte(tc.body))
		if !ok || got.Kind != tc.want.Kind || !got.Equal(tc.want) {
			t.Errorf("%s: scan(%s) = %v, %v; want %v", tc.path, tc.body, got, ok, tc.want)
		}
		checkBody(t, []byte(tc.body))
	}
}

// TestDecodedValueOwnsItsStrings checks the scanner's value holds exact
// -length slices and no reference to the body, which the caller may
// reuse: verdict logs keep these values long after the read.
func TestDecodedValueOwnsItsStrings(t *testing.T) {
	body := []byte(`{"volumes":[{"id":"aa"},{"id":"bb"},{"id":"cc"}]}`)
	v, ok := bindings["project.volumes"].shape.scan(body)
	if !ok || len(v.Elems) != 3 || cap(v.Elems) != 3 {
		t.Fatalf("scan = %v, %v (cap %d)", v, ok, cap(v.Elems))
	}
	for i := range body {
		body[i] = 'x'
	}
	if want := ocl.StringsVal("aa", "bb", "cc"); !v.Equal(want) {
		t.Errorf("after the body was overwritten the value reads %v, want %v", v, want)
	}
}

// FuzzBindingDecode holds the scanner to json.Unmarshal on every binding:
// whatever bytes it accepts decode under json.Unmarshal into the response
// type to an equal value, and decode agrees with json.Unmarshal on every
// input, errors included.
func FuzzBindingDecode(f *testing.F) {
	for _, body := range cloudBodies(f) {
		f.Add(body)
		// The fault injector's truncation.
		f.Add(body[:len(body)/2])
	}
	for _, seed := range []string{
		`{`,
		`{"volumes": [}`,
		`{"volumes":[{"id":"ab","name":"😀"}]}`,
		`{"Volumes":[{"Id":"a"}]}`,
		`{"volumes":[{"id":"a"}],"volumes":[{"id":"b"}]}`,
		`{"volumes":[{"id":"a","id":"b"}]}`,
		`{"volumes":null}`,
		`{"volumes":[null,{"id":null}]}`,
		`{"quota_set":{"volumes":1.0,"gigabytes":1e2}}`,
		`{"quota_set":{"volumes":-0,"gigabytes":9223372036854775808}}`,
		`{"token":{"roles":["a"],"expires_at":"2026-01-02T03:04:05.123456789+01:00"}}`,
		`{"token":{"roles":["a"],"expires_at":"2026-01-02T03:04:05Z\u0000"}}`,
		`{"server":{"status":"ACTIVE","volumes":["v1",null]}}`,
		`{"project":{"id":"p","name":{"nested":[[[]]]}}}`,
		`{"volume":{"status":"available"}}  `,
		`{"volume":{"status":"available"}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBody(t, body)
	})
}

// decodeSink keeps the benchmarked decodes from being optimized away.
var decodeSink ocl.Value

// BenchmarkBindingDecode compares the scanner with the json.Unmarshal
// fallback on the simulated cloud's listing of 16 volumes.
func BenchmarkBindingDecode(b *testing.B) {
	cloud := openstack.New(openstack.Config{})
	pid := cloud.ApplySeed(openstack.Seed{ProjectName: "p", Quota: cinder.QuotaSet{Volumes: 100, Gigabytes: 100}}).ProjectID
	for i := 0; i < 16; i++ {
		if _, err := cloud.Volumes.Create(pid, fmt.Sprintf("c0-%d", i), 1); err != nil {
			b.Fatal(err)
		}
	}
	vols := cloud.Volumes.Volumes(pid)
	body, err := json.Marshal(map[string]any{"volumes": vols})
	if err != nil {
		b.Fatal(err)
	}
	s := &bindings["project.volumes"].shape
	if v, ok := s.scan(body); !ok || v.Size() != 16 {
		b.Fatalf("the scanner reads %v, %v from %s", v, ok, body)
	}
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decodeSink, _ = s.scan(body)
		}
	})
	b.Run("fallback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := s.fallback(body)
			if err != nil {
				b.Fatal(err)
			}
			decodeSink = v
		}
	})
}
