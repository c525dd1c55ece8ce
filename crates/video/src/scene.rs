//! Camera-motion and scene-kind taxonomy: the seven LVS categories.

use crate::classes::SegClass;

/// Camera motion model of a video.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CameraMotion {
    /// Static camera (e.g. a CCTV view). Only the objects move.
    Fixed,
    /// Smoothly panning camera: a slow global drift is added on top of the
    /// object motion.
    Moving,
    /// Head/chest-mounted camera: global drift plus per-frame jitter and
    /// occasional rapid re-orientation.
    Egocentric,
}

impl CameraMotion {
    /// Magnitude of the smooth global drift in pixels per frame, relative to
    /// a 100-pixel-wide frame (scaled by the generator).
    pub fn drift_per_frame(self) -> f32 {
        match self {
            CameraMotion::Fixed => 0.0,
            CameraMotion::Moving => 0.45,
            CameraMotion::Egocentric => 0.35,
        }
    }

    /// Per-frame random jitter magnitude (pixels, same relative scale).
    pub fn jitter(self) -> f32 {
        match self {
            CameraMotion::Fixed => 0.0,
            CameraMotion::Moving => 0.05,
            CameraMotion::Egocentric => 0.9,
        }
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            CameraMotion::Fixed => "fixed",
            CameraMotion::Moving => "moving",
            CameraMotion::Egocentric => "egocentric",
        }
    }
}

/// Main scenery of a video.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneKind {
    /// Wildlife footage: birds, dogs, horses, elephants, giraffes.
    Animals,
    /// People-centric footage: persons and bicycles.
    People,
    /// Street footage: automobiles, bicycles, persons — many fast objects.
    Street,
}

impl SceneKind {
    /// Which object classes appear in this scene kind.
    pub fn object_classes(self) -> &'static [SegClass] {
        match self {
            SceneKind::Animals => &[
                SegClass::Bird,
                SegClass::Dog,
                SegClass::Horse,
                SegClass::Elephant,
                SegClass::Giraffe,
            ],
            SceneKind::People => &[SegClass::Person, SegClass::Bicycle],
            SceneKind::Street => &[SegClass::Automobile, SegClass::Person, SegClass::Bicycle],
        }
    }

    /// Typical number of simultaneously visible objects.
    pub fn typical_object_count(self) -> usize {
        match self {
            SceneKind::Animals => 4,
            SceneKind::People => 3,
            SceneKind::Street => 7,
        }
    }

    /// Typical object speed in pixels per frame (relative to a 100-pixel
    /// frame width; the generator scales it). Street scenes move fastest,
    /// people slowest — this is what makes the street categories need the
    /// most key frames, as in the paper's Table 5.
    pub fn typical_speed(self) -> f32 {
        match self {
            SceneKind::Animals => 0.6,
            SceneKind::People => 0.3,
            SceneKind::Street => 1.4,
        }
    }

    /// Average number of frames between scene-content changes (an object
    /// leaving/entering or the background phase shifting abruptly).
    pub fn scene_change_interval(self) -> usize {
        match self {
            SceneKind::Animals => 220,
            SceneKind::People => 320,
            SceneKind::Street => 110,
        }
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            SceneKind::Animals => "animals",
            SceneKind::People => "people",
            SceneKind::Street => "street",
        }
    }
}

/// A camera × scene category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VideoCategory {
    /// Camera motion model.
    pub camera: CameraMotion,
    /// Scene kind.
    pub scene: SceneKind,
}

impl VideoCategory {
    /// The seven categories evaluated in the paper (Tables 3, 5, 6, 7).
    pub fn paper_categories() -> Vec<VideoCategory> {
        vec![
            VideoCategory {
                camera: CameraMotion::Fixed,
                scene: SceneKind::Animals,
            },
            VideoCategory {
                camera: CameraMotion::Fixed,
                scene: SceneKind::People,
            },
            VideoCategory {
                camera: CameraMotion::Fixed,
                scene: SceneKind::Street,
            },
            VideoCategory {
                camera: CameraMotion::Moving,
                scene: SceneKind::Animals,
            },
            VideoCategory {
                camera: CameraMotion::Moving,
                scene: SceneKind::People,
            },
            VideoCategory {
                camera: CameraMotion::Moving,
                scene: SceneKind::Street,
            },
            VideoCategory {
                camera: CameraMotion::Egocentric,
                scene: SceneKind::People,
            },
        ]
    }

    /// Table-row label, e.g. `"fixed/animals"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.camera.label(), self.scene.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_paper_categories() {
        let cats = VideoCategory::paper_categories();
        assert_eq!(cats.len(), 7);
        let labels: std::collections::HashSet<_> = cats.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 7);
        assert!(labels.contains("egocentric/people"));
        assert!(!labels.contains("egocentric/street"));
    }

    #[test]
    fn scene_object_classes_exclude_background() {
        for kind in [SceneKind::Animals, SceneKind::People, SceneKind::Street] {
            assert!(!kind.object_classes().is_empty());
            assert!(!kind.object_classes().contains(&SegClass::Background));
        }
    }

    #[test]
    fn street_is_the_most_dynamic() {
        assert!(SceneKind::Street.typical_speed() > SceneKind::Animals.typical_speed());
        assert!(SceneKind::Animals.typical_speed() > SceneKind::People.typical_speed());
        assert!(
            SceneKind::Street.scene_change_interval() < SceneKind::People.scene_change_interval()
        );
        assert!(
            SceneKind::Street.typical_object_count() > SceneKind::People.typical_object_count()
        );
    }

    #[test]
    fn camera_motion_ordering() {
        assert_eq!(CameraMotion::Fixed.drift_per_frame(), 0.0);
        assert!(CameraMotion::Egocentric.jitter() > CameraMotion::Moving.jitter());
        assert_eq!(CameraMotion::Moving.label(), "moving");
    }
}
