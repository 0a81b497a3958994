"""The PowerPoint-like presentation model.

A :class:`Presentation` is a list of :class:`Slide` objects; each slide has a
background, a layout, optional transition/notes, and a list of
:class:`Shape` objects (text boxes, pictures, geometric shapes).  The model
covers the slide-level operations the benchmark tasks exercise: background
fills (single slide vs "apply to all"), inserting/removing shapes and slides,
text editing inside shapes, slide show settings and saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.uia.writes import Marked


@dataclass
class ShapeFormat(Marked):
    """Visual formatting of a shape."""

    fill_color: Optional[str] = None
    outline_color: Optional[str] = None
    outline_width: float = 1.0
    font: str = "Calibri"
    font_size: float = 18.0
    font_color: str = "Black"
    bold: bool = False
    italic: bool = False
    alignment: str = "left"


@dataclass
class Shape(Marked):
    """A shape placed on a slide."""

    shape_type: str                    # text_box | picture | rectangle | oval | arrow | chart
    name: str = ""
    text: str = ""
    left: float = 0.0
    top: float = 0.0
    width: float = 200.0
    height: float = 100.0
    rotation: float = 0.0
    format: ShapeFormat = field(default_factory=ShapeFormat)
    image_path: Optional[str] = None   # for pictures
    z_order: int = 0

    def contains_text(self) -> bool:
        return bool(self.text.strip())


@dataclass
class Background(Marked):
    """Slide background fill."""

    fill_type: str = "solid"       # solid | gradient | picture | pattern
    color: str = "White"
    gradient_to: Optional[str] = None


@dataclass
class Transition(Marked):
    """Slide transition settings."""

    effect: str = "None"           # None | Fade | Push | Wipe | Morph
    duration_seconds: float = 1.0
    advance_on_click: bool = True
    advance_after_seconds: Optional[float] = None


class Slide(Marked):
    """A single slide."""

    _counter = 0

    def __init__(self, layout: str = "Title and Content", title: str = ""):
        Slide._counter += 1
        self.slide_id = Slide._counter
        self.layout = layout
        self.background = Background()
        self.transition = Transition()
        self.shapes: List[Shape] = []
        self.notes: str = ""
        self.hidden: bool = False
        if title:
            self.add_text_box(title, name="Title", top=20.0, font_size=40.0)

    # ------------------------------------------------------------------
    def add_shape(self, shape: Shape) -> Shape:
        shape.z_order = len(self.shapes)
        if not shape.name:
            shape.name = f"{shape.shape_type.title().replace('_', ' ')} {len(self.shapes) + 1}"
        self.shapes.append(shape)
        return shape

    def add_text_box(self, text: str, name: str = "", left: float = 50.0, top: float = 100.0,
                     width: float = 600.0, height: float = 80.0, font_size: float = 18.0) -> Shape:
        shape = Shape(shape_type="text_box", name=name or f"TextBox {len(self.shapes) + 1}",
                      text=text, left=left, top=top, width=width, height=height)
        shape.format.font_size = font_size
        return self.add_shape(shape)

    def add_picture(self, image_path: str, name: str = "", left: float = 100.0,
                    top: float = 150.0, width: float = 300.0, height: float = 200.0) -> Shape:
        shape = Shape(shape_type="picture", name=name or f"Picture {len(self.shapes) + 1}",
                      image_path=image_path, left=left, top=top, width=width, height=height)
        return self.add_shape(shape)

    def remove_shape(self, shape: Shape) -> None:
        self.shapes.remove(shape)

    def shape_named(self, name: str) -> Optional[Shape]:
        for shape in self.shapes:
            if shape.name == name:
                return shape
        return None

    def title_text(self) -> str:
        title = self.shape_named("Title")
        return title.text if title is not None else ""

    def text_content(self) -> str:
        return "\n".join(s.text for s in self.shapes if s.contains_text())

    def pictures(self) -> List[Shape]:
        return [s for s in self.shapes if s.shape_type == "picture"]


class Presentation(Marked):
    """A deck of slides plus presentation-level state."""

    def __init__(self, name: str = "Presentation1", slide_count: int = 1):
        self.name = name
        self.slides: List[Slide] = [Slide(title=f"Slide {i + 1}") for i in range(slide_count)]
        self.active_index: int = 0
        self.selected_shape: Optional[Shape] = None
        self.slide_size: str = "16:9"
        self.saved: bool = True
        self.save_count: int = 0
        self.file_format: str = "pptx"
        self.slideshow_from: Optional[int] = None
        self.scroll_percent: float = 0.0

    # ------------------------------------------------------------------
    @property
    def active_slide(self) -> Slide:
        return self.slides[self.active_index]

    def slide_count(self) -> int:
        return len(self.slides)

    def goto_slide(self, index: int) -> Slide:
        if index < 0 or index >= len(self.slides):
            raise IndexError(f"slide index {index} out of range")
        self.active_index = index
        return self.active_slide

    def add_slide(self, layout: str = "Title and Content", title: str = "",
                  index: Optional[int] = None) -> Slide:
        slide = Slide(layout=layout, title=title)
        if index is None:
            self.slides.append(slide)
        else:
            self.slides.insert(index, slide)
        self.saved = False
        return slide

    def delete_slide(self, index: int) -> Slide:
        removed = self.slides.pop(index)
        self.active_index = min(self.active_index, len(self.slides) - 1)
        self.saved = False
        return removed

    def duplicate_slide(self, index: int) -> Slide:
        original = self.slides[index]
        copy = Slide(layout=original.layout)
        copy.shapes = []
        for shape in original.shapes:
            copy.add_shape(Shape(
                shape_type=shape.shape_type, name=shape.name, text=shape.text,
                left=shape.left, top=shape.top, width=shape.width, height=shape.height,
                rotation=shape.rotation, image_path=shape.image_path,
                format=ShapeFormat(**vars(shape.format)),
            ))
        copy.background = Background(**vars(original.background))
        self.slides.insert(index + 1, copy)
        self.saved = False
        return copy

    # ------------------------------------------------------------------
    # background
    # ------------------------------------------------------------------
    def set_background(self, color: str, fill_type: str = "solid",
                       apply_to_all: bool = False) -> int:
        """Set the background fill of the active slide (or every slide)."""
        targets = self.slides if apply_to_all else [self.active_slide]
        for slide in targets:
            slide.background = Background(fill_type=fill_type, color=color)
        self.saved = False
        return len(targets)

    # ------------------------------------------------------------------
    # shapes and selection
    # ------------------------------------------------------------------
    def select_shape(self, shape: Optional[Shape]) -> None:
        self.selected_shape = shape

    def apply_format_to_selection(self, **attributes) -> bool:
        if self.selected_shape is None:
            return False
        for key, value in attributes.items():
            if not hasattr(self.selected_shape.format, key):
                raise AttributeError(f"unknown shape format attribute {key!r}")
            setattr(self.selected_shape.format, key, value)
        self.saved = False
        return True

    # ------------------------------------------------------------------
    # transitions, notes, slideshow
    # ------------------------------------------------------------------
    def set_transition(self, effect: str, apply_to_all: bool = False,
                       duration_seconds: float = 1.0) -> int:
        targets = self.slides if apply_to_all else [self.active_slide]
        for slide in targets:
            slide.transition = Transition(effect=effect, duration_seconds=duration_seconds)
        self.saved = False
        return len(targets)

    def set_notes(self, text: str, index: Optional[int] = None) -> None:
        slide = self.active_slide if index is None else self.slides[index]
        slide.notes = text
        self.saved = False

    def start_slideshow(self, from_beginning: bool = True) -> None:
        self.slideshow_from = 0 if from_beginning else self.active_index

    def scroll_to(self, percent: float) -> None:
        self.scroll_percent = max(0.0, min(100.0, percent))
        if self.slides:
            self.active_index = min(
                len(self.slides) - 1, int(round(self.scroll_percent / 100.0 * (len(self.slides) - 1)))
            )

    def save(self, file_format: Optional[str] = None) -> None:
        if file_format is not None:
            self.file_format = file_format
        self.saved = True
        self.save_count += 1

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "slides": len(self.slides),
            "active_index": self.active_index,
            "backgrounds": [s.background.color for s in self.slides],
            "saved": self.saved,
        }


def sample_presentation() -> Presentation:
    """A small deck used by examples and the benchmark tasks."""
    deck = Presentation(name="Product Launch", slide_count=5)
    deck.slides[0].shapes[0].text = "Product Launch"
    deck.slides[0].add_text_box("FY26 flagship announcement", name="Subtitle", top=200.0)
    deck.slides[1].shapes[0].text = "Agenda"
    deck.slides[1].add_text_box("Market\nProduct\nPricing\nTimeline", name="Body")
    deck.slides[2].shapes[0].text = "Market Overview"
    deck.slides[2].add_picture("market_chart.png", name="Market Chart")
    deck.slides[3].shapes[0].text = "Product Details"
    deck.slides[3].add_text_box("Feature matrix", name="Body")
    deck.slides[4].shapes[0].text = "Timeline"
    deck.slides[4].add_text_box("Q1 beta, Q2 GA", name="Body")
    return deck
