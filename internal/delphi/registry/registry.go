package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/delphi"
)

// On-disk layout, one namespace directory per device class:
//
//	<dir>/<class>/v000001.dm   immutable CRC-framed model (EncodeModel)
//	<dir>/<class>/v000002.dm
//	<dir>/<class>/ACTIVE       decimal version number of the active model
//
// Model files are written tmp→fsync-free rename, so a crashed save leaves at
// worst a *.tmp straggler, never a half-frame under a version name; ACTIVE is
// replaced the same way, so promotion is atomic — a reader sees the old
// version or the new one, nothing in between.

// Registry errors.
var (
	// ErrBadClass: class names must be non-empty [A-Za-z0-9._-] — they become
	// directory names.
	ErrBadClass = errors.New("registry: invalid class name")
	// ErrNoVersion: the requested version does not exist in the class.
	ErrNoVersion = errors.New("registry: no such version")
	// ErrNoActive: the class has no promoted model yet.
	ErrNoActive = errors.New("registry: no active version")
)

// Registry is a versioned, per-device-class model store rooted at one
// directory. All methods are safe for concurrent use; the mutex guards the
// version-allocation read-modify-write and the ACTIVE temp file, which
// promotes of one class share — everything durable goes through atomic
// renames.
type Registry struct {
	dir string
	mu  sync.Mutex
}

// Open roots a registry at dir, creating it if needed.
func Open(dir string) (*Registry, error) {
	if dir == "" {
		return nil, errors.New("registry: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Registry{dir: dir}, nil
}

func checkClass(class string) error {
	if class == "" || class == "." || class == ".." {
		return fmt.Errorf("%w: %q", ErrBadClass, class)
	}
	for _, c := range class {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: %q", ErrBadClass, class)
		}
	}
	return nil
}

func (r *Registry) classDir(class string) string { return filepath.Join(r.dir, class) }

func versionFile(dir string, v int) string { return filepath.Join(dir, fmt.Sprintf("v%06d.dm", v)) }

// writeAtomic writes b to path via tmp→rename in the same directory.
func writeAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Save stores a model as the next version of class (starting at 1) and
// returns the version number. Saving does not promote: the active pointer
// moves only through Promote, so a candidate that fails validation
// is just a dormant file.
func (r *Registry) Save(class string, m *delphi.Model) (int, error) {
	if err := checkClass(class); err != nil {
		return 0, err
	}
	frame, err := EncodeModel(m)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dir := r.classDir(class)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	vs, err := r.versionsLocked(dir)
	if err != nil {
		return 0, err
	}
	next := 1
	if len(vs) > 0 {
		next = vs[len(vs)-1] + 1
	}
	if err := writeAtomic(versionFile(dir, next), frame); err != nil {
		return 0, err
	}
	return next, nil
}

// Load reads and fully validates one stored version.
func (r *Registry) Load(class string, version int) (*delphi.Model, error) {
	if err := checkClass(class); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(versionFile(r.classDir(class), version))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s v%d", ErrNoVersion, class, version)
	}
	if err != nil {
		return nil, err
	}
	return DecodeModel(b)
}

// versionsLocked lists the versions stored in a class directory in ascending
// order (empty, not an error, when the directory does not exist).
func (r *Registry) versionsLocked(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var vs []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, ".dm") {
			continue
		}
		v, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "v"), ".dm"))
		if err != nil || v < 1 {
			continue
		}
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs, nil
}

// ActiveVersion returns the promoted version of class, or ErrNoActive.
func (r *Registry) ActiveVersion(class string) (int, error) {
	if err := checkClass(class); err != nil {
		return 0, err
	}
	b, err := os.ReadFile(filepath.Join(r.classDir(class), "ACTIVE"))
	if errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNoActive, class)
	}
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || v < 1 {
		return 0, fmt.Errorf("registry: corrupt ACTIVE for %s: %q", class, b)
	}
	return v, nil
}

// Active loads the promoted model of class (ErrNoActive if none).
func (r *Registry) Active(class string) (*delphi.Model, int, error) {
	v, err := r.ActiveVersion(class)
	if err != nil {
		return nil, 0, err
	}
	m, err := r.Load(class, v)
	if err != nil {
		return nil, 0, err
	}
	return m, v, nil
}

// Promote makes version the active model of class. The stored frame is fully
// decoded first — a version that no longer validates (torn write, bit rot)
// is refused rather than pointed at, so a reader of ACTIVE can always load.
func (r *Registry) Promote(class string, version int) error {
	if _, err := r.Load(class, version); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return writeAtomic(filepath.Join(r.classDir(class), "ACTIVE"),
		[]byte(strconv.Itoa(version)+"\n"))
}
